(** Small dense linear algebra over floats.

    The regression AFE's Decode step solves the least-squares normal
    equations (paper, eq. 1 and §5.3) on public sums; the matrix is tiny
    ((d+1)×(d+1)), so Gaussian elimination with partial pivoting is
    plenty. *)

exception Singular

(** Solve A·x = b by Gaussian elimination with partial pivoting.
    [a] is square, row-major; both inputs are left unmodified.
    @raise Singular if the matrix is (numerically) singular. *)
let solve (a : float array array) (b : float array) : float array =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let m = Array.map Array.copy a in
    let v = Array.copy b in
    for col = 0 to n - 1 do
      (* partial pivot *)
      let pivot = ref col in
      for row = col + 1 to n - 1 do
        if abs_float m.(row).(col) > abs_float m.(!pivot).(col) then pivot := row
      done;
      if abs_float m.(!pivot).(col) < 1e-12 then raise Singular;
      if !pivot <> col then begin
        let t = m.(col) in
        m.(col) <- m.(!pivot);
        m.(!pivot) <- t;
        let t = v.(col) in
        v.(col) <- v.(!pivot);
        v.(!pivot) <- t
      end;
      for row = col + 1 to n - 1 do
        let factor = m.(row).(col) /. m.(col).(col) in
        if factor <> 0. then begin
          for k = col to n - 1 do
            m.(row).(k) <- m.(row).(k) -. (factor *. m.(col).(k))
          done;
          v.(row) <- v.(row) -. (factor *. v.(col))
        end
      done
    done;
    let x = Array.make n 0. in
    for row = n - 1 downto 0 do
      let acc = ref v.(row) in
      for k = row + 1 to n - 1 do
        acc := !acc -. (m.(row).(k) *. x.(k))
      done;
      x.(row) <- !acc /. m.(row).(row)
    done;
    x
  end

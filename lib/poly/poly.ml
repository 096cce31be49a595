(** Dense univariate polynomials over a prime field.

    Coefficient arrays are little-endian (index i holds the coefficient of
    x^i). This module provides the classic O(n²) algorithms — Horner
    evaluation, schoolbook multiplication, textbook Lagrange interpolation on
    arbitrary points — which serve as the paper-faithful reference path and
    as cross-checks for the NTT fast path in {!Ntt}. *)

module Make (F : Prio_field.Field_intf.S) = struct
  type t = F.t array

  let zero : t = [||]

  let normalize (p : t) : t =
    let n = ref (Array.length p) in
    while !n > 0 && F.is_zero p.(!n - 1) do
      decr n
    done;
    if !n = Array.length p then p else Array.sub p 0 !n

  let degree p =
    let p = normalize p in
    Array.length p - 1
  (* degree of the zero polynomial is -1 *)

  let is_zero p = Array.for_all F.is_zero p

  let equal p q =
    let p = normalize p and q = normalize q in
    Array.length p = Array.length q && Array.for_all2 F.equal p q

  let constant c : t = if F.is_zero c then [||] else [| c |]

  (** Horner evaluation. *)
  let eval (p : t) (x : F.t) : F.t =
    let acc = ref F.zero in
    for i = Array.length p - 1 downto 0 do
      acc := F.add (F.mul !acc x) p.(i)
    done;
    !acc

  let add (p : t) (q : t) : t =
    let lp = Array.length p and lq = Array.length q in
    let n = Stdlib.max lp lq in
    Array.init n (fun i ->
        F.add (if i < lp then p.(i) else F.zero) (if i < lq then q.(i) else F.zero))

  let sub (p : t) (q : t) : t =
    let lp = Array.length p and lq = Array.length q in
    let n = Stdlib.max lp lq in
    Array.init n (fun i ->
        F.sub (if i < lp then p.(i) else F.zero) (if i < lq then q.(i) else F.zero))

  let scale (c : F.t) (p : t) : t = Array.map (F.mul c) p

  let mul_naive (p : t) (q : t) : t =
    let lp = Array.length p and lq = Array.length q in
    if lp = 0 || lq = 0 then [||]
    else begin
      let r = Array.make (lp + lq - 1) F.zero in
      for i = 0 to lp - 1 do
        if not (F.is_zero p.(i)) then
          for j = 0 to lq - 1 do
            r.(i + j) <- F.add r.(i + j) (F.mul p.(i) q.(j))
          done
      done;
      r
    end

  (** Textbook Lagrange interpolation through distinct points.
      O(n²) field multiplications. *)
  let interpolate (points : (F.t * F.t) array) : t =
    let n = Array.length points in
    if n = 0 then [||]
    else begin
      let result = ref [||] in
      for i = 0 to n - 1 do
        let xi, yi = points.(i) in
        (* numerator polynomial prod_{j<>i} (x - x_j), denominator scalar *)
        let num = ref [| F.one |] and denom = ref F.one in
        for j = 0 to n - 1 do
          if j <> i then begin
            let xj = fst points.(j) in
            num := mul_naive !num [| F.neg xj; F.one |];
            denom := F.mul !denom (F.sub xi xj)
          end
        done;
        result := add !result (scale (F.div yi !denom) !num)
      done;
      normalize !result
    end

  (** Batch inversion (Montgomery's trick): invert all elements with one
      field inversion and 3(n-1) multiplications. All inputs must be
      nonzero. *)
  let batch_invert (xs : F.t array) : F.t array =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let prefix = Array.make n F.one in
      prefix.(0) <- xs.(0);
      for i = 1 to n - 1 do
        prefix.(i) <- F.mul prefix.(i - 1) xs.(i)
      done;
      let inv_all = ref (F.inv prefix.(n - 1)) in
      let out = Array.make n F.one in
      for i = n - 1 downto 1 do
        out.(i) <- F.mul !inv_all prefix.(i - 1);
        inv_all := F.mul !inv_all xs.(i)
      done;
      out.(0) <- !inv_all;
      out
    end

  let pp fmt (p : t) =
    let p = normalize p in
    if Array.length p = 0 then Format.pp_print_string fmt "0"
    else
      Array.iteri
        (fun i c ->
          if i > 0 then Format.fprintf fmt " + ";
          Format.fprintf fmt "%a·x^%d" F.pp c i)
        p
end

(* Arbitrary-precision integers on 31-bit limbs.

   Magnitudes are little-endian [int array]s with limbs in [0, 2^31); the
   base is chosen so a limb product plus carries fits in OCaml's 63-bit
   native int. A value is a sign (-1/0/+1) and a trimmed magnitude. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (arrays of limbs, little-endian, trimmed).        *)
(* ------------------------------------------------------------------ *)

let mtrim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mcompare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec loop i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else loop (i - 1)
    in
    loop (la - 1)

let madd a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + Stdlib.max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  mtrim r

(* Requires a >= b. *)
let msub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mtrim r

let mmul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land mask;
          carry := s lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr limb_bits;
          incr k
        done
      end
    done;
    mtrim r
  end

let mmul_int a x =
  (* x in [0, base) *)
  let la = Array.length a in
  if la = 0 || x = 0 then [||]
  else begin
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * x) + !carry in
      r.(i) <- s land mask;
      carry := s lsr limb_bits
    done;
    r.(la) <- !carry;
    mtrim r
  end

let bits_of_limb x =
  let rec loop n x = if x = 0 then n else loop (n + 1) (x lsr 1) in
  loop 0 x

let mnum_bits a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * limb_bits) + bits_of_limb a.(la - 1)

let mshift_left a k =
  if Array.length a = 0 then [||]
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else
      for i = 0 to la - 1 do
        let v = a.(i) lsl bits in
        r.(i + limbs) <- r.(i + limbs) lor (v land mask);
        r.(i + limbs + 1) <- v lsr limb_bits
      done;
    mtrim r
  end

let mshift_right a k =
  let la = Array.length a in
  let limbs = k / limb_bits and bits = k mod limb_bits in
  if limbs >= la then [||]
  else begin
    let lr = la - limbs in
    let r = Array.make lr 0 in
    if bits = 0 then Array.blit a limbs r 0 lr
    else begin
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land mask
          else 0
        in
        r.(i) <- lo lor hi
      done
    end;
    mtrim r
  end

(* Knuth algorithm D.  Returns (quotient, remainder) of magnitudes. *)
let mdivmod u v =
  let lv = Array.length v in
  if lv = 0 then raise Division_by_zero;
  if mcompare u v < 0 then ([||], u)
  else if lv = 1 then begin
    let d = v.(0) in
    let lu = Array.length u in
    let q = Array.make lu 0 in
    let rem = ref 0 in
    for i = lu - 1 downto 0 do
      let cur = (!rem lsl limb_bits) lor u.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (mtrim q, if !rem = 0 then [||] else [| !rem |])
  end
  else begin
    let n = lv in
    let shift = limb_bits - bits_of_limb v.(n - 1) in
    let vn = mshift_left v shift in
    let vn = if Array.length vn < n then Array.append vn (Array.make (n - Array.length vn) 0) else vn in
    let u_sh = mshift_left u shift in
    let lu = Array.length u in
    (* un has exactly lu + 1 limbs *)
    let un = Array.make (lu + 1) 0 in
    Array.blit u_sh 0 un 0 (Array.length u_sh);
    let m = lu - n in
    let q = Array.make (m + 1) 0 in
    let vtop = vn.(n - 1) and v2 = vn.(n - 2) in
    for j = m downto 0 do
      let num = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      let continue_adjust = ref true in
      while !continue_adjust do
        if !qhat >= base || !qhat * v2 > (!rhat lsl limb_bits) lor un.(j + n - 2)
        then begin
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then continue_adjust := false
        end
        else continue_adjust := false
      done;
      (* multiply and subtract *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * vn.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = un.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          un.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          un.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = un.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add divisor back *)
        un.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = un.(i + j) + vn.(i) + !c in
          un.(i + j) <- s land mask;
          c := s lsr limb_bits
        done;
        un.(j + n) <- (un.(j + n) + !c) land mask
      end
      else un.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = mshift_right (mtrim (Array.sub un 0 n)) shift in
    (mtrim q, r)
  end

(* ------------------------------------------------------------------ *)
(* Signed layer.                                                       *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = mtrim mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int x =
  if x = 0 then zero
  else if x = Stdlib.min_int then
    (* |min_int| = 2^62 = limb 2 set to 1 *)
    { sign = -1; mag = [| 0; 0; 1 |] }
  else begin
    let sign = if x < 0 then -1 else 1 in
    let x = Stdlib.abs x in
    let rec limbs acc x = if x = 0 then List.rev acc else limbs ((x land mask) :: acc) (x lsr limb_bits) in
    { sign; mag = Array.of_list (limbs [] x) }
  end

let one = of_int 1
let two = of_int 2

let num_bits x = mnum_bits x.mag

let to_int x =
  if x.sign = 0 then Some 0
  else if num_bits x > 62 then
    (* the one 63-bit value that fits is min_int = -2^62 *)
    if x.sign < 0 && num_bits x = 63 && x.mag = [| 0; 0; 1 |] then Some Stdlib.min_int
    else None
  else begin
    let v = Array.fold_right (fun limb acc -> (acc lsl limb_bits) lor limb) x.mag 0 in
    Some (if x.sign < 0 then -v else v)
  end

let to_int_exn x =
  match to_int x with
  | Some v -> v
  | None -> invalid_arg "Bigint.to_int_exn: does not fit"

let sign x = x.sign
let is_zero x = x.sign = 0

let compare a b =
  if a.sign <> b.sign then Int.compare a.sign b.sign
  else if a.sign >= 0 then mcompare a.mag b.mag
  else mcompare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg x = if x.sign = 0 then zero else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { sign = a.sign; mag = madd a.mag b.mag }
  else begin
    let c = mcompare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (msub a.mag b.mag)
    else make b.sign (msub b.mag a.mag)
  end

and sub a b = add a (neg b)

let succ x = add x one
let pred x = sub x one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else { sign = a.sign * b.sign; mag = mmul a.mag b.mag }

let mul_int a x =
  if x = 0 || a.sign = 0 then zero
  else if x > 0 && x < base then { sign = a.sign; mag = mmul_int a.mag x }
  else mul a (of_int x)

let shift_left x k = if x.sign = 0 || k = 0 then x else { x with mag = mshift_left x.mag k }

let shift_right x k =
  if x.sign = 0 || k = 0 then x else make x.sign (mshift_right x.mag k)

let testbit x i =
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length x.mag && (x.mag.(limb) lsr bit) land 1 = 1

let is_even x = x.sign = 0 || x.mag.(0) land 1 = 0
let is_odd x = not (is_even x)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mdivmod a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let erem a b =
  let r = rem a b in
  if r.sign < 0 then add r (abs b) else r

let divmod_small a d =
  if d <= 0 || d >= base then invalid_arg "Bigint.divmod_small";
  let q, r = mdivmod a.mag [| d |] in
  let rv = if Array.length r = 0 then 0 else r.(0) in
  (make a.sign q, if a.sign < 0 then -rv else rv)

(* ------------------------------------------------------------------ *)
(* String conversions.                                                 *)
(* ------------------------------------------------------------------ *)

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let chunks = ref [] in
    let cur = ref (abs x) in
    while not (is_zero !cur) do
      let q, r = divmod_small !cur 1_000_000_000 in
      chunks := r :: !chunks;
      cur := q
    done;
    let buf = Buffer.create 32 in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let to_string_hex x =
  if x.sign = 0 then "0x0"
  else begin
    let bits = num_bits x in
    let nibbles = (bits + 3) / 4 in
    let buf = Buffer.create (nibbles + 3) in
    if x.sign < 0 then Buffer.add_char buf '-';
    Buffer.add_string buf "0x";
    let started = ref false in
    for i = nibbles - 1 downto 0 do
      let limb = (i * 4) / limb_bits and bit = (i * 4) mod limb_bits in
      let v =
        let lo = if limb < Array.length x.mag then (x.mag.(limb) lsr bit) land 0xf else 0 in
        let spill = bit + 4 - limb_bits in
        if spill > 0 && limb + 1 < Array.length x.mag then
          lo lor ((x.mag.(limb + 1) land ((1 lsl spill) - 1)) lsl (4 - spill))
        else lo
      in
      if v <> 0 || !started || i = 0 then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[v]
      end
    done;
    Buffer.contents buf
  end

let pp fmt x = Format.pp_print_string fmt (to_string x)

let of_string s =
  let s = String.trim s in
  if s = "" then invalid_arg "Bigint.of_string: empty";
  let negative = s.[0] = '-' in
  let s = if negative || s.[0] = '+' then String.sub s 1 (String.length s - 1) else s in
  let value =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then begin
      let acc = ref zero in
      String.iter
        (fun c ->
          let v =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
            | '_' -> -1
            | _ -> invalid_arg "Bigint.of_string: bad hex digit"
          in
          if v >= 0 then acc := add (shift_left !acc 4) (of_int v))
        (String.sub s 2 (String.length s - 2));
      !acc
    end
    else begin
      let acc = ref zero in
      let chunk = ref 0 and chunk_len = ref 0 in
      let flush () =
        if !chunk_len > 0 then begin
          let p = int_of_float (10. ** float_of_int !chunk_len) in
          acc := add (mul_int !acc p) (of_int !chunk);
          chunk := 0;
          chunk_len := 0
        end
      in
      String.iter
        (fun c ->
          match c with
          | '0' .. '9' ->
            chunk := (!chunk * 10) + (Char.code c - Char.code '0');
            incr chunk_len;
            if !chunk_len = 9 then flush ()
          | '_' -> ()
          | _ -> invalid_arg "Bigint.of_string: bad digit")
        s;
      flush ();
      !acc
    end
  in
  if negative then neg value else value

let to_bytes_be x width =
  if x.sign < 0 then invalid_arg "Bigint.to_bytes_be: negative";
  if num_bits x > width * 8 then invalid_arg "Bigint.to_bytes_be: does not fit";
  let b = Bytes.make width '\000' in
  for i = 0 to width - 1 do
    (* byte i from the end *)
    let bit = i * 8 in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    let v =
      let lo = if limb < Array.length x.mag then (x.mag.(limb) lsr off) land 0xff else 0 in
      let spill = off + 8 - limb_bits in
      if spill > 0 && limb + 1 < Array.length x.mag then
        lo lor ((x.mag.(limb + 1) land ((1 lsl spill) - 1)) lsl (8 - spill))
      else lo
    in
    Bytes.set b (width - 1 - i) (Char.chr (v land 0xff))
  done;
  b

let of_bytes_be b =
  let acc = ref zero in
  Bytes.iter (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c))) b;
  !acc

(* ------------------------------------------------------------------ *)
(* Number theory.                                                      *)
(* ------------------------------------------------------------------ *)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else go (if n land 1 = 1 then mul acc b else acc) (mul b b) (n lsr 1)
  in
  go one x n

let pow_mod b e m =
  if m.sign <= 0 then invalid_arg "Bigint.pow_mod: modulus <= 0";
  if e.sign < 0 then invalid_arg "Bigint.pow_mod: negative exponent";
  let b = erem b m in
  let bits = num_bits e in
  let result = ref (erem one m) and acc = ref b in
  for i = 0 to bits - 1 do
    if testbit e i then result := erem (mul !result !acc) m;
    if i < bits - 1 then acc := erem (mul !acc !acc) m
  done;
  !result

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (erem a b)

let invert_mod a m =
  (* extended Euclid on (a mod m, m) tracking only the coefficient of a *)
  let a = erem a m in
  if is_zero a then None
  else begin
    let rec go r0 r1 t0 t1 =
      if is_zero r1 then if equal r0 one then Some (erem t0 m) else None
      else begin
        let q, r2 = divmod r0 r1 in
        go r1 r2 t1 (sub t0 (mul q t1))
      end
    in
    go a m one zero
  end

(* ------------------------------------------------------------------ *)
(* Randomness (caller supplies the entropy).                           *)
(* ------------------------------------------------------------------ *)

let random_bits ~rand_limb bits =
  if bits <= 0 then zero
  else begin
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let mag = Array.init nlimbs (fun _ -> rand_limb () land mask) in
    let top_bits = bits - ((nlimbs - 1) * limb_bits) in
    mag.(nlimbs - 1) <- mag.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    make 1 mag
  end

let random_below ~rand_limb bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound <= 0";
  let bits = num_bits bound in
  let rec loop () =
    let x = random_bits ~rand_limb bits in
    if compare x bound < 0 then x else loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Miller–Rabin.                                                       *)
(* ------------------------------------------------------------------ *)

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97 ]

let is_probable_prime ?(rounds = 40) n =
  let n = abs n in
  match to_int n with
  | Some v when v < 2 -> false
  | _ ->
    let small =
      List.exists
        (fun p ->
          let _, r = divmod_small n p in
          r = 0)
        small_primes
    in
    if small then List.exists (fun p -> equal n (of_int p)) small_primes
    else begin
      (* n - 1 = d * 2^r with d odd *)
      let nm1 = pred n in
      let r = ref 0 and d = ref nm1 in
      while is_even !d do
        d := shift_right !d 1;
        incr r
      done;
      let witness a =
        let a = erem a n in
        if is_zero a || equal a one || equal a nm1 then true
        else begin
          let x = ref (pow_mod a !d n) in
          if equal !x one || equal !x nm1 then true
          else begin
            let ok = ref false in
            (try
               for _ = 1 to !r - 1 do
                 x := erem (mul !x !x) n;
                 if equal !x nm1 then begin
                   ok := true;
                   raise Exit
                 end
               done
             with Exit -> ());
            !ok
          end
        end
      in
      (* deterministic bases first, then bases from a simple LCG seeded by n *)
      let fixed = List.for_all (fun p -> witness (of_int p)) small_primes in
      fixed
      && begin
           let seed = ref (match to_int (erem n (of_int 0x3FFFFFFF)) with Some v -> v lor 1 | None -> 1) in
           let next () =
             seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
             !seed
           in
           let rec loop k =
             if k = 0 then true
             else begin
               let a = add two (erem (of_int (next ())) (sub n (of_int 4))) in
               witness a && loop (k - 1)
             end
           in
           loop rounds
         end
    end

(* ------------------------------------------------------------------ *)
(* Montgomery arithmetic.                                              *)
(* ------------------------------------------------------------------ *)

(* Elements are n-limb little-endian arrays in Montgomery form, and every
   operation returns a canonical residue (< m): each ends with one
   conditional subtraction. [equal] compares limbs and relies on that. *)
module Mont = struct
  type ctx = {
    m : int array; (* modulus limbs, length n *)
    n : int;
    bits : int; (* bit length of m *)
    m' : int; (* -m^{-1} mod 2^31 *)
    r2 : int array; (* R^2 mod m, R = 2^(31 n) *)
    modulus : t;
    one_m : int array; (* R mod m *)
    unit_limbs : int array; (* plain 1; multiplying by it leaves Montgomery form *)
  }

  type elt = int array (* length ctx.n, Montgomery form *)

  let modulus ctx = ctx.modulus

  (* inverse of odd x mod 2^31 by Newton iteration *)
  let inv_limb x =
    let y = ref x in
    for _ = 1 to 5 do
      y := (!y * (2 - (x * !y))) land mask
    done;
    !y

  let pad limbs n =
    let l = Array.length limbs in
    if l = n then limbs
    else begin
      let r = Array.make n 0 in
      Array.blit limbs 0 r 0 l;
      r
    end

  (* r < m, comparing limbs i, i-1, ..., 0 *)
  let rec below (m : int array) (r : int array) i =
    i >= 0 && if r.(i) <> m.(i) then r.(i) < m.(i) else below m r (i - 1)

  (* CIOS Montgomery multiplication: returns (a * b * R^-1) mod m *)
  let mul_generic ctx a b =
    let n = ctx.n and m = ctx.m and m' = ctx.m' in
    let t = Array.make (n + 2) 0 in
    for i = 0 to n - 1 do
      let ai = a.(i) in
      let c = ref 0 in
      for j = 0 to n - 1 do
        let s = t.(j) + (ai * b.(j)) + !c in
        t.(j) <- s land mask;
        c := s lsr limb_bits
      done;
      let s = t.(n) + !c in
      t.(n) <- s land mask;
      t.(n + 1) <- t.(n + 1) + (s lsr limb_bits);
      let u = (t.(0) * m') land mask in
      let s0 = t.(0) + (u * m.(0)) in
      let c = ref (s0 lsr limb_bits) in
      for j = 1 to n - 1 do
        let s = t.(j) + (u * m.(j)) + !c in
        t.(j - 1) <- s land mask;
        c := s lsr limb_bits
      done;
      let s = t.(n) + !c in
      t.(n - 1) <- s land mask;
      t.(n) <- t.(n + 1) + (s lsr limb_bits);
      t.(n + 1) <- 0
    done;
    let r = Array.sub t 0 n in
    (* result < 2m; one conditional subtraction *)
    if t.(n) > 0 || not (below m r (n - 1)) then begin
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let d = r.(i) - m.(i) - !borrow in
        if d < 0 then begin
          r.(i) <- d + base;
          borrow := 1
        end
        else begin
          r.(i) <- d;
          borrow := 0
        end
      done
    end;
    r

  (* [mul_generic] for n = 3 (F87) with both inner loops unrolled: the
     accumulator t0..t3 stays in locals and the only allocation is the
     result. Same steps, so the same canonical result. *)
  let mul3 ctx a b =
    let m = ctx.m and m' = ctx.m' in
    let m0 = m.(0) and m1 = m.(1) and m2 = m.(2) in
    let b0 = b.(0) and b1 = b.(1) and b2 = b.(2) in
    let t0 = ref 0 and t1 = ref 0 and t2 = ref 0 and t3 = ref 0 in
    for i = 0 to 2 do
      let ai = a.(i) in
      let s = !t0 + (ai * b0) in
      let x0 = s land mask in
      let s = !t1 + (ai * b1) + (s lsr limb_bits) in
      let x1 = s land mask in
      let s = !t2 + (ai * b2) + (s lsr limb_bits) in
      let x2 = s land mask in
      let s = !t3 + (s lsr limb_bits) in
      let x3 = s land mask and x4 = s lsr limb_bits in
      let u = (x0 * m') land mask in
      let s = x0 + (u * m0) in
      let s = x1 + (u * m1) + (s lsr limb_bits) in
      t0 := s land mask;
      let s = x2 + (u * m2) + (s lsr limb_bits) in
      t1 := s land mask;
      let s = x3 + (s lsr limb_bits) in
      t2 := s land mask;
      t3 := x4 + (s lsr limb_bits)
    done;
    let r0 = !t0 and r1 = !t1 and r2 = !t2 in
    if !t3 > 0 || r2 > m2 || (r2 = m2 && (r1 > m1 || (r1 = m1 && r0 >= m0))) then begin
      (* a negative difference's [asr] is -1: the borrow into the next limb *)
      let d0 = r0 - m0 in
      let d1 = r1 - m1 + (d0 asr limb_bits) in
      let d2 = r2 - m2 + (d1 asr limb_bits) in
      [| d0 land mask; d1 land mask; d2 land mask |]
    end
    else [| r0; r1; r2 |]

  let mont_mul ctx a b = if ctx.n = 3 then mul3 ctx a b else mul_generic ctx a b

  let create modulus =
    if modulus.sign <= 0 || is_even modulus || compare modulus (of_int 3) < 0 then
      invalid_arg "Bigint.Mont.create: modulus must be odd and >= 3";
    let mlimbs = modulus.mag in
    let n = Array.length mlimbs in
    let m' = (base - inv_limb mlimbs.(0)) land mask in
    let r2_big = erem (shift_left one (2 * n * limb_bits)) modulus in
    let r2 = pad r2_big.mag n in
    let unit_limbs = pad [| 1 |] n in
    let ctx0 =
      { m = mlimbs; n; bits = num_bits modulus; m'; r2; modulus; one_m = [||]; unit_limbs }
    in
    { ctx0 with one_m = mont_mul ctx0 r2 unit_limbs }

  let to_mont ctx x =
    let x = erem x ctx.modulus in
    mont_mul ctx (pad x.mag ctx.n) ctx.r2

  let of_mont ctx e = make 1 (mont_mul ctx e ctx.unit_limbs)

  (* Limbs are drawn and masked exactly as [random_bits] does for
     [random_below], and rejected on the same test, so both consume the
     same [rand_limb] stream and accept the same value. *)
  let random ctx ~rand_limb =
    let n = ctx.n in
    let top = (1 lsl (ctx.bits - ((n - 1) * limb_bits))) - 1 in
    let r = Array.make n 0 in
    let accepted = ref false in
    while not !accepted do
      for i = 0 to n - 1 do
        r.(i) <- rand_limb () land mask
      done;
      r.(n - 1) <- r.(n - 1) land top;
      accepted := below ctx.m r (n - 1)
    done;
    mont_mul ctx r ctx.r2

  (* Bytes are shifted into [acc] from the least significant end; every
     31 bits make a limb. Bits that land past limb n - 1 go to [spill]. *)
  let of_bytes_be ctx b =
    let n = ctx.n in
    let x = Array.make n 0 in
    let acc = ref 0 and nb = ref 0 and k = ref 0 and spill = ref 0 in
    for i = Bytes.length b - 1 downto 0 do
      acc := !acc lor (Char.code (Bytes.get b i) lsl !nb);
      nb := !nb + 8;
      if !nb >= limb_bits then begin
        if !k < n then x.(!k) <- !acc land mask else spill := !spill lor (!acc land mask);
        acc := !acc lsr limb_bits;
        nb := !nb - limb_bits;
        incr k
      end
    done;
    if !k < n then x.(!k) <- !acc else spill := !spill lor !acc;
    if !spill = 0 && below ctx.m x (n - 1) then Some (mont_mul ctx x ctx.r2) else None

  (* The reverse: limbs are shifted into [acc] whenever it holds fewer
     than 8 bits, and bytes leave it from the least significant end. *)
  let to_bytes_be ctx e width =
    if width * 8 < ctx.bits then invalid_arg "Bigint.Mont.to_bytes_be: width too small";
    let x = mont_mul ctx e ctx.unit_limbs in
    let n = ctx.n in
    let out = Bytes.create width in
    let acc = ref 0 and nb = ref 0 and k = ref 0 in
    for i = width - 1 downto 0 do
      if !nb < 8 && !k < n then begin
        acc := !acc lor (x.(!k) lsl !nb);
        nb := !nb + limb_bits;
        incr k
      end;
      Bytes.set out i (Char.chr (!acc land 0xff));
      acc := !acc lsr 8;
      nb := !nb - 8
    done;
    out

  let zero ctx = Array.make ctx.n 0
  let one ctx = Array.copy ctx.one_m

  let add_generic ctx a b =
    let n = ctx.n and m = ctx.m in
    let r = Array.make n 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = a.(i) + b.(i) + !carry in
      r.(i) <- s land mask;
      carry := s lsr limb_bits
    done;
    if !carry > 0 || not (below m r (n - 1)) then begin
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let d = r.(i) - m.(i) - !borrow in
        if d < 0 then begin
          r.(i) <- d + base;
          borrow := 1
        end
        else begin
          r.(i) <- d;
          borrow := 0
        end
      done
    end;
    r

  let sub_generic ctx a b =
    let n = ctx.n and m = ctx.m in
    let r = Array.make n 0 in
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = a.(i) - b.(i) - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end
      else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    if !borrow = 1 then begin
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = r.(i) + m.(i) + !carry in
        r.(i) <- s land mask;
        carry := s lsr limb_bits
      done
    end;
    r

  (* [add_generic] and [sub_generic] for n = 3, unrolled like [mul3]: the
     limbs stay in locals, the only allocation is the result, and the one
     conditional correction keeps it canonical. *)
  let add3 ctx a b =
    let m = ctx.m in
    let m0 = m.(0) and m1 = m.(1) and m2 = m.(2) in
    let s0 = a.(0) + b.(0) in
    let s1 = a.(1) + b.(1) + (s0 lsr limb_bits) in
    let s2 = a.(2) + b.(2) + (s1 lsr limb_bits) in
    let r0 = s0 land mask and r1 = s1 land mask and r2 = s2 land mask in
    if s2 > mask || r2 > m2 || (r2 = m2 && (r1 > m1 || (r1 = m1 && r0 >= m0))) then begin
      let d0 = r0 - m0 in
      let d1 = r1 - m1 + (d0 asr limb_bits) in
      let d2 = r2 - m2 + (d1 asr limb_bits) in
      [| d0 land mask; d1 land mask; d2 land mask |]
    end
    else [| r0; r1; r2 |]

  let sub3 ctx a b =
    let d0 = a.(0) - b.(0) in
    let d1 = a.(1) - b.(1) + (d0 asr limb_bits) in
    let d2 = a.(2) - b.(2) + (d1 asr limb_bits) in
    if d2 < 0 then begin
      let m = ctx.m in
      let s0 = (d0 land mask) + m.(0) in
      let s1 = (d1 land mask) + m.(1) + (s0 lsr limb_bits) in
      let s2 = (d2 land mask) + m.(2) + (s1 lsr limb_bits) in
      [| s0 land mask; s1 land mask; s2 land mask |]
    end
    else [| d0 land mask; d1 land mask; d2 |]

  let add ctx a b = if ctx.n = 3 then add3 ctx a b else add_generic ctx a b
  let sub ctx a b = if ctx.n = 3 then sub3 ctx a b else sub_generic ctx a b

  let is_zero_arr a = Array.for_all (fun x -> x = 0) a

  let neg ctx a = if is_zero_arr a then Array.copy a else sub ctx (zero ctx) a
  let mul ctx a b = mont_mul ctx a b
  let sqr ctx a = mont_mul ctx a a

  let pow ctx b e =
    if e.sign < 0 then invalid_arg "Bigint.Mont.pow: negative exponent";
    let bits = num_bits e in
    let result = ref (one ctx) and acc = ref b in
    for i = 0 to bits - 1 do
      if testbit e i then result := mont_mul ctx !result !acc;
      if i < bits - 1 then acc := mont_mul ctx !acc !acc
    done;
    !result

  let equal a b = a = b
  let is_zero (_ : ctx) a = is_zero_arr a
end

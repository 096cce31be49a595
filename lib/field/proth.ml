(* Prime fields from Proth primes p = c * 2^k + 1, on top of Montgomery
   arithmetic from [Prio_bigint]. These replace the paper's FLINT-backed
   87-bit and 265-bit FFT-friendly fields. *)

module B = Prio_bigint.Bigint

module type Config = sig
  val name : string
  val prime : string (* decimal or 0x-hex *)
  val generator : int (* generator of the full multiplicative group *)
  val two_adicity : int
  val odd_cofactor : string (* c, the odd part of p - 1 *)
end

module Make (C : Config) : Field_intf.S = struct
  type t = B.Mont.elt

  let name = C.name
  let order = B.of_string C.prime
  let num_bits = B.num_bits order
  let bytes_len = (num_bits + 7) / 8
  let two_adicity = C.two_adicity

  let ctx = B.Mont.create order

  let zero = B.Mont.zero ctx
  let one = B.Mont.one ctx
  let of_bigint x = B.Mont.to_mont ctx x
  let of_int x = of_bigint (B.of_int x)
  let two = of_int 2
  let to_bigint x = B.Mont.of_mont ctx x

  let add = B.Mont.add ctx
  let sub = B.Mont.sub ctx
  let neg = B.Mont.neg ctx
  let mul = B.Mont.mul ctx
  let sqr = B.Mont.sqr ctx

  let pow_big b e = B.Mont.pow ctx b e
  let pow b e =
    if e < 0 then invalid_arg (name ^ ".pow: negative exponent");
    pow_big b (B.of_int e)

  let p_minus_2 = B.sub order B.two

  let is_zero x = B.Mont.is_zero ctx x

  let inv a = if is_zero a then raise Division_by_zero else pow_big a p_minus_2
  let div a b = mul a (inv b)

  let equal = B.Mont.equal
  let is_one x = equal x one

  let random rng = B.Mont.random ctx ~rand_limb:(fun () -> Prio_crypto.Rng.limb31 rng)

  let rec random_nonzero rng =
    let x = random rng in
    if is_zero x then random_nonzero rng else x

  let to_bytes x = B.Mont.to_bytes_be ctx x bytes_len

  let of_bytes b =
    if not (Int.equal (Bytes.length b) bytes_len) then
      invalid_arg (name ^ ".of_bytes: wrong width");
    match B.Mont.of_bytes_be ctx b with
    | Some x -> x
    | None -> invalid_arg (name ^ ".of_bytes: not canonical")

  let to_string x = B.to_string (to_bigint x)
  let pp fmt x = Format.pp_print_string fmt (to_string x)

  (* Sanity-check the field constants once at startup: p must be an odd
     prime of the advertised shape, and g must be a generator. *)
  let odd_cofactor = B.of_string C.odd_cofactor
  let () =
    assert (B.equal order (B.succ (B.shift_left odd_cofactor two_adicity)));
    assert (B.is_odd odd_cofactor);
    let g = of_int C.generator in
    let pm1 = B.pred order in
    assert (not (is_one (pow_big g (B.shift_right pm1 1))))

  let root_table =
    lazy
      (let t = Array.make (two_adicity + 1) one in
       t.(two_adicity) <- pow_big (of_int C.generator) odd_cofactor;
       for k = two_adicity - 1 downto 0 do
         t.(k) <- sqr t.(k + 1)
       done;
       t)

  let root_of_unity k =
    if k < 0 || k > two_adicity then
      invalid_arg (name ^ ".root_of_unity: out of range");
    (Lazy.force root_table).(k)

  (* The generator check above only rules out quadratic residues; a bad
     Config could still derive a low-order "root of unity" and silently
     corrupt every NTT. Pin the two-adic root to exact order 2^k: the
     table entry for k = adicity squares down to the primitive square
     root of unity, which must be −1 (and square back to 1). *)
  let () =
    if two_adicity >= 1 then begin
      let r2 = root_of_unity 1 in
      assert (equal r2 (neg one));
      assert (is_one (sqr r2))
    end
end

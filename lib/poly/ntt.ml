(** Number-theoretic transform (radix-2 Cooley–Tukey) over an FFT-friendly
    prime field.

    This replaces the FLINT-backed FFT of the original implementation: it is
    what makes SNIP proof generation cost O(M log M) multiplications instead
    of O(M²) (Table 2).

    The transform of size n = 2^k maps coefficients (c_0..c_{n-1}) to
    evaluations at the powers (ω^0, ω^1, …, ω^{n-1}) of a primitive n-th root
    of unity ω; the inverse transform interpolates.

    [ntt]/[intt]/[mul] execute against cached {!Ntt_plan} tables; the
    [_uncached] variants recompute roots on every call and exist as the
    reference implementation for equivalence tests and benchmarks. *)

module Make (F : Prio_field.Field_intf.S) = struct
  module Plan = Ntt_plan.Make (F)

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let log2 n =
    let rec go k m = if m >= n then k else go (k + 1) (m * 2) in
    go 0 1

  let next_pow2 n = 1 lsl log2 (Stdlib.max 1 n)

  let bit_reverse_permute a =
    let n = Array.length a in
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let t = a.(i) in
        a.(i) <- a.(!j);
        a.(!j) <- t
      end;
      let bit = ref (n lsr 1) in
      while !j land !bit <> 0 do
        j := !j lxor !bit;
        bit := !bit lsr 1
      done;
      j := !j lor !bit
    done

  (** In-place transform with an explicit primitive n-th root. *)
  let transform_with_root (a : F.t array) (root : F.t) =
    let n = Array.length a in
    if not (is_pow2 n) then invalid_arg "Ntt.transform: size must be a power of two";
    bit_reverse_permute a;
    let len = ref 2 in
    while !len <= n do
      let wlen = F.pow root (n / !len) in
      let half = !len / 2 in
      let k = ref 0 in
      while !k < n do
        let w = ref F.one in
        for j = 0 to half - 1 do
          let u = a.(!k + j) in
          let t = F.mul !w a.(!k + j + half) in
          a.(!k + j) <- F.add u t;
          a.(!k + j + half) <- F.sub u t;
          w := F.mul !w wlen
        done;
        k := !k + !len
      done;
      len := !len * 2
    done

  let root_for n =
    let k = log2 n in
    if k > F.two_adicity then invalid_arg "Ntt: size exceeds the field's two-adicity";
    F.root_of_unity k

  (** Coefficients → evaluations at (ω^0 … ω^{n-1}); returns a new array. *)
  let ntt (coeffs : F.t array) : F.t array =
    let a = Array.copy coeffs in
    Plan.transform (Plan.get (Array.length a)) a;
    a

  (** Evaluations at (ω^0 … ω^{n-1}) → coefficients; returns a new array. *)
  let intt (values : F.t array) : F.t array =
    let a = Array.copy values in
    let p = Plan.get (Array.length a) in
    Plan.transform p ~inverse:true a;
    let n_inv = Plan.n_inv p in
    Array.map (F.mul n_inv) a

  (** Polynomial product via NTT; sizes are padded to the covering power of
      two internally. *)
  let mul (p : F.t array) (q : F.t array) : F.t array =
    let lp = Array.length p and lq = Array.length q in
    if lp = 0 || lq = 0 then [||]
    else begin
      let out_len = lp + lq - 1 in
      let n = next_pow2 out_len in
      let pad a = Array.init n (fun i -> if i < Array.length a then a.(i) else F.zero) in
      let fa = pad p and fb = pad q in
      let plan = Plan.get n in
      Plan.transform plan fa;
      Plan.transform plan fb;
      for i = 0 to n - 1 do
        fa.(i) <- F.mul fa.(i) fb.(i)
      done;
      Plan.transform plan ~inverse:true fa;
      let n_inv = Plan.n_inv plan in
      Array.init out_len (fun i -> F.mul n_inv fa.(i))
    end

  (** Values of f·g on the 2n-grid, for f and g of degree < n given by
      their values [u], [v] on the n-grid. The even points ω₂ₙ^{2t} = ω_nᵗ
      need no transform: they are u_t·v_t. The odd points ω₂ₙ·ω_nᵗ form a
      coset of the n-grid, so f there is the size-n forward transform of
      its coefficients scaled by ω₂ₙⁱ; the interpolation's n⁻¹ is folded
      into that one table, read off the 2n plan's powers. Two inverse and
      two forward size-n transforms in all. *)
  let double_grid_product (u : F.t array) (v : F.t array) : F.t array =
    let n = Array.length u in
    if Array.length v <> n then
      invalid_arg "Ntt.double_grid_product: length mismatch";
    let plan = Plan.get n and plan2 = Plan.get (2 * n) in
    let n_inv = Plan.n_inv plan in
    let shift = Array.init n (fun i -> F.mul n_inv (Plan.omega_pow plan2 i)) in
    let on_coset values =
      let a = Array.copy values in
      Plan.transform plan ~inverse:true a;
      for i = 0 to n - 1 do
        a.(i) <- F.mul shift.(i) a.(i)
      done;
      Plan.transform plan a;
      a
    in
    let fo = on_coset u and go = on_coset v in
    Array.init (2 * n) (fun i ->
        let t = i lsr 1 in
        if i land 1 = 0 then F.mul u.(t) v.(t) else F.mul fo.(t) go.(t))

  (* ----------------- uncached reference implementations ----------------- *)

  let ntt_uncached (coeffs : F.t array) : F.t array =
    let a = Array.copy coeffs in
    transform_with_root a (root_for (Array.length a));
    a

  let intt_uncached (values : F.t array) : F.t array =
    let n = Array.length values in
    let a = Array.copy values in
    transform_with_root a (F.inv (root_for n));
    let n_inv = F.inv (F.of_int n) in
    Array.map (F.mul n_inv) a

  let mul_uncached (p : F.t array) (q : F.t array) : F.t array =
    let lp = Array.length p and lq = Array.length q in
    if lp = 0 || lq = 0 then [||]
    else begin
      let out_len = lp + lq - 1 in
      let n = next_pow2 out_len in
      let pad a = Array.init n (fun i -> if i < Array.length a then a.(i) else F.zero) in
      let fa = pad p and fb = pad q in
      let root = root_for n in
      transform_with_root fa root;
      transform_with_root fb root;
      for i = 0 to n - 1 do
        fa.(i) <- F.mul fa.(i) fb.(i)
      done;
      transform_with_root fa (F.inv root);
      let n_inv = F.inv (F.of_int n) in
      Array.init out_len (fun i -> F.mul n_inv fa.(i))
    end
end

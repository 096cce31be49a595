(** Cached NTT execution plans.

    A plan bundles everything a size-n transform needs beyond the data
    itself: the bit-reversal permutation table, the full power table
    (ω⁰ … ω^{n−1}) of a primitive n-th root of unity, and the n⁻¹
    scaling constant for the inverse transform. Building one costs n
    field multiplications plus one inversion; executing a transform
    against a plan then needs zero calls to [F.pow] — the butterfly
    twiddle for index j at stage length len is a table read of
    ω^{j·(n/len)}, and the inverse twiddle is ω^{n − j·(n/len)}.

    Plans are immutable once built, so a single mutex-guarded table can
    hand the same plan to every domain of a multicore run. The cache is
    per functor instantiation, i.e. per (field, program module) — sizes
    used by SNIP proving and batched verification repeat endlessly, so
    each table is built exactly once per process. *)

module Make (F : Prio_field.Field_intf.S) = struct
  type t = {
    n : int;
    bitrev : int array;
    pows : F.t array; (* ω^0 … ω^{n-1} *)
    n_inv : F.t;
  }

  let size t = t.n
  let n_inv t = t.n_inv

  (** ω^{i mod n}; accepts any integer index. *)
  let omega_pow t i =
    let j = i mod t.n in
    t.pows.(if j < 0 then j + t.n else j)

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let log2 n =
    let rec go k m = if m >= n then k else go (k + 1) (m * 2) in
    go 0 1

  let build n =
    (* same message as the historical uncached path raised for bad sizes *)
    if not (is_pow2 n) then
      invalid_arg "Ntt.transform: size must be a power of two";
    let k = log2 n in
    if k > F.two_adicity then
      invalid_arg "Ntt: size exceeds the field's two-adicity";
    let omega = F.root_of_unity k in
    let pows = Array.make n F.one in
    for i = 1 to n - 1 do
      pows.(i) <- F.mul pows.(i - 1) omega
    done;
    let bitrev =
      Array.init n (fun i ->
          let r = ref 0 and x = ref i in
          for _ = 1 to k do
            r := (!r lsl 1) lor (!x land 1);
            x := !x lsr 1
          done;
          !r)
    in
    { n; bitrev; pows; n_inv = F.inv (F.of_int n) }

  let cache : (int, t) Hashtbl.t = Hashtbl.create 8
  let cache_mutex = Mutex.create ()

  let get n =
    Mutex.lock cache_mutex;
    match Hashtbl.find_opt cache n with
    | Some p ->
      Mutex.unlock cache_mutex;
      p
    | None ->
      (* build under the lock so each size is computed exactly once *)
      let p =
        try build n
        with e ->
          Mutex.unlock cache_mutex;
          raise e
      in
      Hashtbl.add cache n p;
      Mutex.unlock cache_mutex;
      p

  (** In-place radix-2 transform driven entirely by the plan's tables.
      Forward by default; [~inverse:true] runs the inverse butterflies
      but does {e not} apply the 1/n scaling (compose with {!n_inv}). *)
  let transform t ?(inverse = false) (a : F.t array) =
    if Array.length a <> t.n then
      invalid_arg "Ntt_plan.transform: array length does not match plan size";
    let n = t.n in
    let br = t.bitrev in
    for i = 0 to n - 1 do
      let j = br.(i) in
      if i < j then begin
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      end
    done;
    let pows = t.pows in
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let step = n / !len in
      let k = ref 0 in
      while !k < n do
        for j = 0 to half - 1 do
          let idx = j * step in
          let w = if inverse && idx <> 0 then pows.(n - idx) else pows.(idx) in
          let u = a.(!k + j) in
          let v = F.mul w a.(!k + j + half) in
          a.(!k + j) <- F.add u v;
          a.(!k + j + half) <- F.sub u v
        done;
        k := !k + !len
      done;
      len := !len * 2
    done
end

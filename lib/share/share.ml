(** Secret sharing over a prime field.

    Prio uses s-out-of-s {e additive} sharing (§3): x is split into uniform
    shares summing to x, so any s−1 shares are information-theoretically
    independent of x. The PRG-compressed variant (Appendix I) replaces the
    first s−1 shares by 32-byte seeds, cutting client upload by ~s×.

    {!Shamir} threshold sharing is included for the Appendix B extension
    (robustness against faulty servers at a privacy cost). *)

module Make (F : Prio_field.Field_intf.S) = struct
  module Rng = Prio_crypto.Rng

  (** [split rng ~s x] is s uniform shares summing to x. *)
  let split rng ~s x =
    if s < 1 then invalid_arg "Share.split: need at least one share";
    let shares = Array.make s F.zero in
    let acc = ref F.zero in
    for i = 0 to s - 2 do
      let v = F.random rng in
      shares.(i) <- v;
      acc := F.add !acc v
    done;
    shares.(s - 1) <- F.sub x !acc;
    shares

  let reconstruct shares = Array.fold_left F.add F.zero shares

  (** [split_vector rng ~s v] is an s-array of length-L share vectors. *)
  let split_vector rng ~s (v : F.t array) : F.t array array =
    if s < 1 then invalid_arg "Share.split_vector: need at least one share";
    let l = Array.length v in
    let shares = Array.init s (fun _ -> Array.make l F.zero) in
    for j = 0 to l - 1 do
      let acc = ref F.zero in
      for i = 0 to s - 2 do
        let x = F.random rng in
        shares.(i).(j) <- x;
        acc := F.add !acc x
      done;
      shares.(s - 1).(j) <- F.sub v.(j) !acc
    done;
    shares

  let reconstruct_vector (shares : F.t array array) : F.t array =
    match Array.length shares with
    | 0 -> [||]
    | _ ->
      let l = Array.length shares.(0) in
      Array.init l (fun j ->
          Array.fold_left (fun acc sh -> F.add acc sh.(j)) F.zero shares)

  (** Add [src] into the accumulator [dst] component-wise (the servers'
      Aggregate step). *)
  let add_into ~(dst : F.t array) (src : F.t array) =
    for j = 0 to Array.length dst - 1 do
      dst.(j) <- F.add dst.(j) src.(j)
    done

  (* ------------------------------------------------------------------ *)
  (* PRG-compressed shares (Appendix I).                                 *)
  (* ------------------------------------------------------------------ *)

  type compressed =
    | Seed of Bytes.t  (** expand to a share vector with the PRG *)
    | Explicit of F.t array

  (** Deterministic seed → length-L share vector. *)
  let expand_seed seed ~len : F.t array =
    let prg = Rng.of_seed seed in
    Array.init len (fun _ -> F.random prg)

  let expand c ~len =
    match c with
    | Seed s -> expand_seed s ~len
    | Explicit v ->
      if not (Int.equal (Array.length v) len) then
        invalid_arg "Share.expand: length mismatch";
      v

  (** Split a vector so that the first s−1 shares are PRG seeds and the
      last is explicit: upload cost L + O(s) instead of s·L. *)
  let split_compressed rng ~s (v : F.t array) : compressed array =
    if s < 1 then invalid_arg "Share.split_compressed: need at least one share";
    let l = Array.length v in
    let seeds = Array.init (s - 1) (fun _ -> Rng.fresh_seed rng) in
    (* element j takes the j-th draw of every seed's PRG, so each stream
       is read in the order [expand_seed] reads it *)
    let prgs = Array.map Rng.of_seed seeds in
    let last =
      Array.init l (fun j ->
          Array.fold_left (fun x prg -> F.sub x (F.random prg)) v.(j) prgs)
    in
    Array.append (Array.map (fun s -> Seed s) seeds) [| Explicit last |]

  (** Serialized size in bytes of one compressed share. *)
  let compressed_size c =
    match c with
    | Seed _ -> Rng.seed_bytes
    | Explicit v -> Array.length v * F.bytes_len

  (* ------------------------------------------------------------------ *)
  (* Shamir threshold sharing (Appendix B).                              *)
  (* ------------------------------------------------------------------ *)

  module Shamir = struct
    module P = Prio_poly.Poly.Make (F)

    (** [split rng ~threshold ~shares x] evaluates a random degree-
        (threshold−1) polynomial with constant term x at points 1..shares.
        Any [threshold] shares reconstruct x; fewer reveal nothing. *)
    let split rng ~threshold ~shares x =
      if threshold < 1 || shares < threshold then invalid_arg "Shamir.split";
      let coeffs =
        Array.init threshold (fun i -> if i = 0 then x else F.random rng)
      in
      Array.init shares (fun i ->
          let xi = F.of_int (i + 1) in
          (xi, P.eval coeffs xi))

    (** Reconstruct the secret (the value at 0) from >= threshold points. *)
    let reconstruct (points : (F.t * F.t) array) : F.t =
      let poly = P.interpolate points in
      P.eval poly F.zero
  end
end

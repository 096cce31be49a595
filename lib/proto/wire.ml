(** Wire format for Prio messages.

    Every field element is serialized to its fixed-width canonical encoding,
    so message sizes measured by the cluster's byte counters are exactly the
    bytes a real deployment would put on the wire (this is what Figure 6
    reports). Share payloads carry a one-byte tag distinguishing an explicit
    vector from a 32-byte PRG seed (the Appendix I compressed form). *)

(* The one big-endian integer codec of [prio_proto]: frame lengths and
   client ids, and the snapshot and journal headers. *)
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff

module Make (F : Prio_field.Field_intf.S) = struct
  module Sh = Prio_share.Share.Make (F)

  let vector_to_bytes (v : F.t array) : Bytes.t =
    let w = F.bytes_len in
    let out = Bytes.create (Array.length v * w) in
    Array.iteri (fun i x -> Bytes.blit (F.to_bytes x) 0 out (i * w) w) v;
    out

  let vector_of_bytes (b : Bytes.t) : F.t array =
    let w = F.bytes_len in
    let len = Bytes.length b in
    if len mod w <> 0 then invalid_arg "Wire.vector_of_bytes: ragged payload";
    Array.init (len / w) (fun i -> F.of_bytes (Bytes.sub b (i * w) w))

  (** Non-raising variant for frames arriving off the network, where a
      ragged or non-canonical payload is peer misbehaviour to degrade
      on, not a programming error to crash on. *)
  let vector_of_bytes_opt (b : Bytes.t) : F.t array option =
    match vector_of_bytes b with
    | v -> Some v
    | exception Invalid_argument _ -> None

  (** Parse exactly two field elements at [off]; [None] if the slice is
      missing, over-long, or non-canonical. Shape of every SNIP gossip
      payload ((d,e) openings, (σ,ζ) verdicts). *)
  let field_pair_opt (b : Bytes.t) ~off : (F.t * F.t) option =
    let w = F.bytes_len in
    if Bytes.length b <> off + (2 * w) then None
    else
      match
        (F.of_bytes (Bytes.sub b off w), F.of_bytes (Bytes.sub b (off + w) w))
      with
      | pair -> Some pair
      | exception Invalid_argument _ -> None

  let tag_explicit = '\000'
  let tag_seed = '\001'

  let payload_to_bytes (c : Sh.compressed) : Bytes.t =
    match c with
    | Sh.Seed seed ->
      assert (Bytes.length seed = Prio_crypto.Rng.seed_bytes);
      Bytes.cat (Bytes.make 1 tag_seed) seed
    | Sh.Explicit v -> Bytes.cat (Bytes.make 1 tag_explicit) (vector_to_bytes v)

  let payload_of_bytes (b : Bytes.t) : Sh.compressed =
    if Bytes.length b < 1 then invalid_arg "Wire.payload_of_bytes: empty";
    let body = Bytes.sub b 1 (Bytes.length b - 1) in
    match Bytes.get b 0 with
    | c when c = tag_seed ->
      if Bytes.length body <> Prio_crypto.Rng.seed_bytes then
        invalid_arg "Wire.payload_of_bytes: bad seed length";
      Sh.Seed body
    | c when c = tag_explicit -> Sh.Explicit (vector_of_bytes body)
    | _ -> invalid_arg "Wire.payload_of_bytes: unknown tag"
end

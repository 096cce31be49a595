(** Wire format for Prio messages: fixed-width canonical field-element
    vectors plus the tagged compressed-share payloads of Appendix I.
    Message sizes measured by the cluster's byte counters are exactly the
    bytes a deployment would send (Figure 6). *)

val set_u32 : Bytes.t -> int -> int -> unit
(** [set_u32 b off v] writes the low 32 bits of [v] big-endian at [off]:
    the one integer codec of frames, snapshots and journals. *)

val get_u32 : Bytes.t -> int -> int
(** The unsigned big-endian 32-bit integer at [off]. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module Sh : module type of Prio_share.Share.Make (F)

  val vector_to_bytes : F.t array -> Bytes.t
  val vector_of_bytes : Bytes.t -> F.t array
  (** @raise Invalid_argument on ragged or non-canonical input. *)

  val vector_of_bytes_opt : Bytes.t -> F.t array option
  (** Non-raising variant for network input: [None] on ragged or
      non-canonical payloads. *)

  val field_pair_opt : Bytes.t -> off:int -> (F.t * F.t) option
  (** Exactly two field elements at [off] ([None] on any length or
      canonicity violation) — the shape of SNIP gossip payloads. *)

  val payload_to_bytes : Sh.compressed -> Bytes.t
  (** One tag byte + either the 32-byte seed or the explicit vector. *)

  val payload_of_bytes : Bytes.t -> Sh.compressed
  (** @raise Invalid_argument on unknown tags or bad seed lengths. *)
end

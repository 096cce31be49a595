(** Schnorr signatures over {!Group} (Fiat–Shamir of the Schnorr
    identification protocol).

    The substrate for the paper's §7 Sybil / selective-DoS defense:
    registered clients sign their submissions so the servers can gate
    publication on a threshold of distinct registered contributors
    ({!Prio_proto.Registry}). *)

module B := Prio_bigint.Bigint

type secret_key = B.t
type public_key = Group.elt

type signature = { challenge : B.t; response : B.t }

val keygen : Prio_crypto.Rng.t -> secret_key * public_key

val sign : Prio_crypto.Rng.t -> secret_key -> Bytes.t -> signature

val verify : public_key -> Bytes.t -> signature -> bool

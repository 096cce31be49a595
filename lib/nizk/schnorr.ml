(** Schnorr signatures over the {!Group}.

    The paper's §7 selective-DoS / Sybil defense has clients sign their
    submissions under registered public keys so the servers can wait for a
    threshold of distinct registered clients before publishing. The paper
    assumes a PKI and "digital signatures [71]"; this is that substrate. *)

module B = Prio_bigint.Bigint
module Rng = Prio_crypto.Rng

type secret_key = B.t
type public_key = Group.elt

type signature = { challenge : B.t; response : B.t }

let keygen rng : secret_key * public_key =
  let sk = Group.random_exponent rng in
  (sk, Group.exp Group.g sk)

let challenge_of ~commitment ~public_key msg =
  Group.challenge [ Group.to_bytes commitment; Group.to_bytes public_key; msg ]

let sign rng (sk : secret_key) (msg : Bytes.t) : signature =
  let k = Group.random_exponent rng in
  let commitment = Group.exp Group.g k in
  let public_key = Group.exp Group.g sk in
  let challenge = challenge_of ~commitment ~public_key msg in
  let response = B.erem (B.add k (B.mul challenge sk)) Group.q in
  { challenge; response }

let verify (pk : public_key) (msg : Bytes.t) (s : signature) : bool =
  (* recompute R = g^response · pk^{-challenge} and check the challenge *)
  let r =
    Group.mul (Group.exp Group.g s.response)
      (Group.inv (Group.exp pk s.challenge))
  in
  B.equal s.challenge (challenge_of ~commitment:r ~public_key:pk msg)

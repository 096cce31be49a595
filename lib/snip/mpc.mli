(** Server-side Valid evaluation — the "Prio-MPC" variant (paper §4.4,
    Appendix E).

    When Valid is a server secret the client cannot SNIP it; instead it
    ships one Beaver triple per mul gate plus a SNIP proving the triples
    well-formed, and the servers evaluate the circuit themselves with
    Beaver's protocol: one broadcast of two field elements per server per
    gate (the Θ(M) traffic of Figure 6), privacy against
    honest-but-curious servers. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module C : module type of Prio_circuit.Circuit.Make (F)

  type triple_share = { a : F.t; b : F.t; c : F.t }
  (** One server's share of one multiplication triple. *)

  val gen_triples :
    rng:Prio_crypto.Rng.t -> s:int -> m:int -> triple_share array array
  (** Client side: [m] well-formed triples shared across [s] servers;
      result indexed [server].(gate). *)

  val triple_circuit : m:int -> C.t
  (** The public circuit asserting a_t·b_t = c_t for all t over inputs
      (a_1..a_m, b_1..b_m, c_1..c_m) — what the client's SNIP proves. *)

  type stats = {
    rounds : int;  (** Beaver rounds = mul gates evaluated *)
    elements_broadcast_per_server : int;
  }

  val eval :
    C.t -> inputs:F.t array array -> triples:triple_share array array ->
    F.t array array * stats
  (** Multi-party evaluation on shares (simulated in-process): per-server
      wire-share arrays summing to the true wire values, plus traffic
      stats. *)

  val decide : rng:Prio_crypto.Rng.t -> C.t -> F.t array array -> bool
  (** Publish a random combination of the assert-zero wire shares and
      test it for zero. *)
end

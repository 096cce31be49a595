(** A simulated multi-server Prio deployment with exact byte accounting.

    All s servers run in one process; every server-to-server message is
    recorded on a per-link byte matrix at its serialized size, so the
    data-transfer numbers of Figure 6 come out exactly. Leadership
    rotates per submission (the paper's load-balancing, Figure 5), the
    verifiers' batch secrets rotate every [batch_size] submissions
    (Appendix I), and replay/forgery protection is per server.

    Per-submission verification flow (leader ℓ): local prepare
    everywhere; non-leaders send Beaver openings to ℓ (2 elements); ℓ
    broadcasts the reconstructed pair; everyone returns a verdict share
    (2 elements); ℓ broadcasts the decision. In Prio-MPC mode, one Beaver
    round per mul gate of the secret circuit precedes the decision. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module C : module type of Prio_circuit.Circuit.Make (F)
  module Snip : module type of Prio_snip.Snip.Make (F)
  module Server : module type of Server.Make (F)
  module Client : module type of Client.Make (F)

  type mode =
    | Robust_snip  (** full Prio: SNIP-verified submissions *)
    | Robust_mpc  (** Prio-MPC: server-side Valid evaluation (§4.4) *)
    | No_robustness  (** §3 baseline: accumulate without verification *)

  type t = {
    mode : mode;
    circuit : C.t;
    encoding_len : int;
    trunc_len : int;
    s : int;
    master : Bytes.t;
    servers : Server.t array;
    mutable snip_ctx : Snip.batch_ctx option;
    triple_circuit : C.t option;
        (** Prio-MPC's triple circuit, built once by {!create} *)
    mutable triple_ctx : Snip.batch_ctx option;
    batch_size : int;
    mutable processed_in_batch : int;
    mutable batches : int;
    epoch_size : int;
        (** submissions per replay/idempotency epoch; 0 = never rotate *)
    mutable epoch : int;
    mutable submissions_in_epoch : int;
    links : int array array;  (** links.(i).(j): bytes sent i → j *)
    rng : Prio_crypto.Rng.t;
    mutable next_leader : int;
    mutable accepted : int;
    mutable rejected : int;
  }

  val client_mode : t -> Client.mode
  (** The client-side mode matching this deployment. *)

  val create :
    ?batch_size:int -> ?epoch_size:int -> rng:Prio_crypto.Rng.t ->
    mode:mode -> circuit:C.t -> trunc_len:int -> num_servers:int ->
    master:Bytes.t -> unit -> t
  (** [batch_size] (default 1024) bounds how many submissions share one
      identity-test point r before resampling. [epoch_size] (default 0 =
      off) bounds how many submissions' replay/idempotency entries stay
      resident before {!rotate_epoch} drops them — the streaming-mode
      flat-memory knob. *)

  val resident_entries : t -> int
  (** Per-submission state currently resident across all servers; with
      [epoch_size] set, bounded by [s * epoch_size]. *)

  val rotate_epoch : t -> unit
  (** Close the replay/idempotency epoch on every server in lockstep;
      accumulators and counters are untouched. Also available with
      [epoch_size = 0] for callers that rotate on their own schedule. *)

  val submit : t -> client_id:int -> Client.packets -> bool
  (** Deliver one client's packets to every server, run verification, and
      accumulate on acceptance. *)

  val publish : ?dp_alpha:float -> t -> F.t array
  (** Every server reveals its accumulator (counted as traffic); the sum
      is returned for AFE decoding. [dp_alpha] adds each server's
      distributed-noise share first (§7). *)

  val merge_into : dst:t -> t -> unit
  (** Fold a replica's accumulators, counters and traffic into [dst]
      (used by {!Parallel}); deployments must match. *)

  val bytes_sent : t -> int -> int
  val total_server_bytes : t -> int
end

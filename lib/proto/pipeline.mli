(** End-to-end pipelines for the five schemes the evaluation compares
    (§6.1): no-privacy (s = 1, no checks), no-robustness, Prio, Prio-MPC
    — all through {!Cluster} — plus the NIZK baseline. The benchmark
    harness drives these to regenerate Figures 4–8 and Tables 3/9.

    Throughput convention: the simulator executes all servers' work
    serially; a symmetric s-server cluster runs it in parallel, so
    simulated throughput for n submissions in T serial seconds is
    n·s/T. *)

val time : (unit -> 'a) -> 'a * float
(** Wall-clock a thunk. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module Cluster : module type of Cluster.Make (F)
  module Client : module type of Client.Make (F)

  type prepared = {
    packets : (int * Client.packets) array;  (** (client_id, packets) *)
    client_seconds : float;
    upload_bytes : int;
  }

  val prepare : rng:Prio_crypto.Rng.t -> Cluster.t -> F.t array list -> prepared
  (** Pre-generate client submissions (the benchmarks stream these, as
      the paper's load generators did). *)

  val process : Cluster.t -> prepared -> int * float
  (** Feed the batch through the cluster: (accepted, serial seconds). *)

  val simulated_throughput : num_servers:int -> n:int -> serial_seconds:float -> float
end

(** The NIZK comparison scheme (§6, Kursawe-et-al.-style): Pedersen
    commitments per coordinate, 0/1 OR-proofs, exponent shares, and a
    per-coordinate consistency check costing every server two
    exponentiations — the Θ(L) public-key work Prio avoids. *)
module Nizk_pipeline : sig
  module B := Prio_bigint.Bigint

  type submission = {
    commitments : Prio_nizk.Pedersen.commitment array;
    proofs : Prio_nizk.Bitproof.t array;
    x_shares : B.t array array;  (** [server].(coord), exponent shares *)
    r_shares : B.t array array;
  }

  val client : rng:Prio_crypto.Rng.t -> bits:int array -> s:int -> submission

  val server_process : s:int -> submission -> bool
  (** Serial server-side work for the whole cluster: load-balanced proof
      checking plus every server's consistency exponentiations. *)

  val upload_bytes : s:int -> l:int -> int
  val per_server_bytes : l:int -> int
  (** The Θ(L) per-server publication of Figure 6. *)
end

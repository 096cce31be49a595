(** Multicore batch verification: submissions are independent, so a batch
    shards across OCaml 5 domains, each owning a private cluster replica
    (no shared mutable state, no locks), merged afterwards — the
    within-machine analogue of Figure 5's horizontal scaling. *)

val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f xs] applies [f] to every element on the caller plus
    [min domains n − 1] spawned domains, which take indices from one
    shared counter (so uneven work balances). Results come back in index
    order. If any call raises, the exception of the lowest failing index
    is re-raised once every domain has joined. [domains = 1] runs on the
    caller and spawns nothing. Raises [Invalid_argument] on
    [domains < 1]. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module Cluster : module type of Cluster.Make (F)
  module Client : module type of Client.Make (F)

  val process :
    make_replica:(unit -> Cluster.t) ->
    domains:int -> (int * Client.packets) array -> Cluster.t * int
  (** Verify the batch on [domains] cores (via {!map}); returns the
      merged cluster and the accepted count. [make_replica] must build
      identical deployments (same circuit, server count, master) with
      independent RNGs. Shards are merged in index order, and every
      counter of the result — aggregates, accepted/rejected, per-link
      bytes, batch-rotation state, next leader — matches a sequential
      run over the same batch. *)
end

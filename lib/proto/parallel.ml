(** Multicore batch verification.

    The paper scales Prio horizontally — more servers barely change
    throughput because verification is embarrassingly parallel across
    submissions (Figure 5's load-balanced leader). The same property holds
    *within* one machine: submissions are independent, so a batch can be
    verified on all cores. This module shards a prepared batch across
    OCaml 5 domains, each owning a private replica of the cluster state
    (no shared mutable state, hence no locks), and merges accumulators and
    counters afterwards — sums of sums commute, exactly the linearity that
    makes Prio aggregation work in the first place. *)

(** Index-ordered fan-out: the caller and the spawned domains pull
    indices from one atomic counter, each writes only its own result
    slots, and [Domain.join] publishes those writes before they are
    read back in index order. *)
let map ~domains f xs =
  if domains < 1 then invalid_arg "Parallel.map: domains < 1";
  let n = Array.length xs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some (match f xs.(i) with v -> Ok v | exception e -> Error e);
      work ()
    end
  in
  let spawned =
    Array.init (max 0 (min domains n - 1)) (fun _ -> Domain.spawn work)
  in
  work ();
  Array.iter Domain.join spawned;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false (* every index below [n] was taken *))
    results

module Make (F : Prio_field.Field_intf.S) = struct
  module Cluster = Cluster.Make (F)
  module Client = Client.Make (F)

  (** [process ~make_replica ~domains packets] verifies and accumulates
      the batch on [domains] cores and returns a merged cluster plus the
      number of accepted submissions. [make_replica] must build identical
      deployments (same circuit, server count, and master key) with
      independent RNGs; each shard gets one replica, and the first
      replica receives the merge (always in shard-index order, so the
      merged state is deterministic). *)
  let process ~(make_replica : unit -> Cluster.t) ~domains
      (packets : (int * Client.packets) array) : Cluster.t * int =
    if domains < 1 then invalid_arg "Parallel.process: domains < 1";
    let n = Array.length packets in
    let run_shard d =
      let replica = make_replica () in
      let accepted = ref 0 in
      (* round-robin so uneven work (accept vs reject) spreads out; each
         entry keeps its global position for the leader schedule below *)
      for global_i = 0 to n - 1 do
        if global_i mod domains = d then begin
          let client_id, pk = packets.(global_i) in
          (* Seed leader rotation from the global submission index: each
             replica sees an interleaved subsequence of the batch, and
             the per-link byte matrix must come out identical to a
             sequential run over the whole batch (Figure 5/6 parity). *)
          replica.Cluster.next_leader <- global_i mod replica.Cluster.s;
          if Cluster.submit replica ~client_id pk then incr accepted
        end
      done;
      (replica, !accepted)
    in
    let results = map ~domains run_shard (Array.init domains Fun.id) in
    let first, accepted0 = results.(0) in
    let total = ref accepted0 in
    for d = 1 to domains - 1 do
      let replica, accepted = results.(d) in
      Cluster.merge_into ~dst:first replica;
      total := !total + accepted
    done;
    (first, !total)
end

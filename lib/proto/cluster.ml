(** A simulated multi-server Prio deployment with exact byte accounting.

    All s servers run in one process; every server-to-server message is
    serialized through {!Wire} sizes and recorded on a per-link byte-count
    matrix, so the data-transfer numbers (Figure 6) are the bytes a real
    deployment would send. Leadership rotates per submission, which is how
    the paper load-balances the leader's extra traffic (Figure 5).

    Verification flow per submission (leader ℓ):
    - every server locally prepares (communication-free circuit walk and
      polynomial evaluations),
    - non-leaders send their Beaver openings (d_i, e_i) to ℓ       [2 elts]
    - ℓ reconstructs d, e and broadcasts them                      [2 elts each]
    - every non-leader sends its verdict share (σ_i, ζ_i) to ℓ    [2 elts]
    - ℓ broadcasts accept/reject                                   [1 byte]

    In Prio-MPC mode the servers additionally run one Beaver broadcast
    round per mul gate of the secret Valid circuit, which is the Θ(M)
    traffic visible in Figure 6. *)

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Prio_circuit.Circuit.Make (F)
  module Snip = Prio_snip.Snip.Make (F)
  module Mpc = Prio_snip.Mpc.Make (F)
  module Sh = Prio_share.Share.Make (F)
  module W = Wire.Make (F)
  module Server = Server.Make (F)
  module Client = Client.Make (F)
  module Rng = Prio_crypto.Rng
  module Metrics = Prio_obs.Metrics
  module Trace = Prio_obs.Trace

  (* Unified byte/latency channels (ISSUE 4): the links matrix below stays
     the per-link source of truth; these global metrics are the cross-layer
     aggregate view that bench and prio_cli read. *)
  let m_link_bytes = Metrics.counter "prio_server_link_bytes_total"
  let m_accepted = Metrics.counter "prio_cluster_accepted_total"
  let m_rejected = Metrics.counter "prio_cluster_rejected_total"
  let h_snip_verify = Metrics.histogram "prio_snip_verify_seconds"
  let h_mpc_eval = Metrics.histogram "prio_mpc_eval_seconds"
  let h_submit = Metrics.histogram "prio_cluster_submit_seconds"

  type mode =
    | Robust_snip  (** full Prio: SNIP-verified submissions *)
    | Robust_mpc  (** Prio-MPC: server-side Valid evaluation (§4.4) *)
    | No_robustness  (** §3 baseline: accumulate without verification *)

  type t = {
    mode : mode;
    circuit : C.t;  (** the Valid predicate over the AFE encoding *)
    encoding_len : int;
    trunc_len : int;
    s : int;
    master : Bytes.t;
    servers : Server.t array;
    mutable snip_ctx : Snip.batch_ctx option;  (** for Robust_snip *)
    triple_circuit : C.t option;
        (** for Robust_mpc: the circuit the clients' triple SNIPs prove,
            built once per deployment *)
    mutable triple_ctx : Snip.batch_ctx option;  (** for Robust_mpc's triple SNIP *)
    batch_size : int;
        (** submissions per batch secret r (Appendix I): the verifiers'
            secrets are resampled every [batch_size] submissions, keeping a
            probing client's cheating probability below
            (2M+1)·batch_size/|F| *)
    mutable processed_in_batch : int;
    mutable batches : int;
    epoch_size : int;
        (** submissions per replay/idempotency epoch; 0 disables rotation
            (the pre-streaming behaviour: tables grow with the stream) *)
    mutable epoch : int;
    mutable submissions_in_epoch : int;
    links : int array array;  (** links.(i).(j): bytes sent i → j *)
    rng : Rng.t;  (** server-side randomness (batch secrets, MPC combos) *)
    mutable next_leader : int;
    mutable accepted : int;
    mutable rejected : int;
  }

  let client_mode t : Client.mode =
    match t.mode with
    | Robust_snip -> Client.Robust_snip t.circuit
    | Robust_mpc -> Client.Robust_mpc (C.num_mul_gates t.circuit)
    | No_robustness -> Client.No_robustness

  let create ?(batch_size = 1024) ?(epoch_size = 0) ~rng ~mode
      ~(circuit : C.t) ~trunc_len ~num_servers ~master () =
    if num_servers < 1 then invalid_arg "Cluster.create: need a server";
    if (mode <> No_robustness) && num_servers < 2 then
      invalid_arg "Cluster.create: robustness needs at least two servers";
    let encoding_len = C.num_inputs circuit in
    if trunc_len > encoding_len then invalid_arg "Cluster.create: trunc too wide";
    let m = C.num_mul_gates circuit in
    let triple_circuit =
      if mode = Robust_mpc then Some (Mpc.triple_circuit ~m) else None
    in
    let payload_elements =
      match (mode, triple_circuit) with
      | Robust_snip, _ -> encoding_len + Snip.proof_num_elements circuit
      | _, Some tc -> encoding_len + (3 * m) + Snip.proof_num_elements tc
      | _, None -> encoding_len
    in
    let servers =
      Array.init num_servers (fun id ->
          Server.create ~id ~num_servers ~master ~trunc_len ~payload_elements)
    in
    let batch_ctx circuit = Snip.make_batch_ctx ~rng ~circuit ~num_servers in
    let snip_ctx = if mode = Robust_snip then Some (batch_ctx circuit) else None in
    let triple_ctx = Option.map batch_ctx triple_circuit in
    if batch_size < 1 then invalid_arg "Cluster.create: batch_size < 1";
    if epoch_size < 0 then invalid_arg "Cluster.create: epoch_size < 0";
    {
      mode;
      circuit;
      encoding_len;
      trunc_len;
      s = num_servers;
      master;
      servers;
      snip_ctx;
      triple_circuit;
      triple_ctx;
      batch_size;
      processed_in_batch = 0;
      batches = 1;
      epoch_size;
      epoch = 0;
      submissions_in_epoch = 0;
      links = Array.make_matrix num_servers num_servers 0;
      rng;
      next_leader = 0;
      accepted = 0;
      rejected = 0;
    }

  let resample_batch_secrets t =
    match t.mode with
    | Robust_snip ->
      t.snip_ctx <-
        Some (Snip.make_batch_ctx ~rng:t.rng ~circuit:t.circuit ~num_servers:t.s)
    | Robust_mpc ->
      t.triple_ctx <-
        Option.map
          (fun circuit -> Snip.make_batch_ctx ~rng:t.rng ~circuit ~num_servers:t.s)
          t.triple_circuit
    | No_robustness -> ()

  (* Resample the batch secrets after every [batch_size] submissions
     (Appendix I): bounds what a probing client can learn about r. *)
  let maybe_rotate_batch t =
    t.processed_in_batch <- t.processed_in_batch + 1;
    if t.processed_in_batch >= t.batch_size then begin
      t.processed_in_batch <- 0;
      t.batches <- t.batches + 1;
      resample_batch_secrets t
    end

  (** Per-submission state currently resident across all servers —
      replay nonces plus recorded verdicts, both generations. With
      [epoch_size] set this is bounded by [2 * s * epoch_size] entries of
      each kind regardless of stream length. *)
  let resident_entries t =
    Array.fold_left (fun acc srv -> acc + Server.resident_entries srv) 0
      t.servers

  (** Close the replay/idempotency epoch on every server in lockstep.
      Accumulators and counters are untouched — only the per-submission
      tables (the memory that grows with the stream) are dropped. *)
  let rotate_epoch t =
    Array.iter Server.rotate_epoch t.servers;
    t.epoch <- t.epoch + 1;
    t.submissions_in_epoch <- 0;
    Trace.event "cluster.epoch_rotated"
      ~attrs:[ ("epoch", string_of_int t.epoch) ]

  (* Streaming mode: rotate the per-submission tables every [epoch_size]
     submissions, so memory stays flat over an unbounded stream. *)
  let maybe_rotate_epoch t =
    if t.epoch_size > 0 then begin
      t.submissions_in_epoch <- t.submissions_in_epoch + 1;
      if t.submissions_in_epoch >= t.epoch_size then rotate_epoch t
    end

  let send t ~src ~dst nbytes =
    if src <> dst then begin
      t.links.(src).(dst) <- t.links.(src).(dst) + nbytes;
      Metrics.add m_link_bytes nbytes
    end

  let broadcast_from t ~src nbytes =
    for dst = 0 to t.s - 1 do
      send t ~src ~dst nbytes
    done

  let elt = F.bytes_len

  (* SNIP verification round-trip with byte accounting; [subs] are the
     per-server parsed submission shares for the SNIP's circuit. *)
  let run_snip_check t (ctx : Snip.batch_ctx) ~leader
      (subs : Snip.submission_share array) : bool =
    Trace.with_span "server.snip_verify" @@ fun () ->
    Metrics.time h_snip_verify @@ fun () ->
    let states = Array.map (Snip.server_prepare ctx) subs in
    (* openings to the leader *)
    let d = ref F.zero and e = ref F.zero in
    Array.iteri
      (fun i (_, o) ->
        send t ~src:i ~dst:leader (2 * elt);
        d := F.add !d o.Snip.d;
        e := F.add !e o.Snip.e)
      states;
    (* leader broadcasts reconstructed d, e *)
    broadcast_from t ~src:leader (2 * elt);
    let verdicts =
      Array.mapi
        (fun i (st, _) ->
          send t ~src:i ~dst:leader (2 * elt);
          Snip.server_decide_share ctx st ~d:!d ~e:!e)
        states
    in
    broadcast_from t ~src:leader 1;
    Snip.accept verdicts

  (* Prio-MPC: triple-SNIP check, then Beaver evaluation of the Valid
     circuit with per-gate broadcast accounting. *)
  let run_mpc_check t ~leader (vectors : F.t array array) : bool =
    Trace.with_span "server.mpc_eval" @@ fun () ->
    Metrics.time h_mpc_eval @@ fun () ->
    let m = C.num_mul_gates t.circuit in
    let l = t.encoding_len in
    let tc, ctx =
      match (t.triple_circuit, t.triple_ctx) with
      | Some tc, Some ctx -> (tc, ctx)
      | _ -> assert false (* both built for every Robust_mpc deployment *)
    in
    let triple_subs =
      Array.map
        (fun v -> Snip.submission_of_vector tc (Array.sub v l (Array.length v - l)))
        vectors
    in
    if not (run_snip_check t ctx ~leader triple_subs) then false
    else begin
      let x_shares = Array.map (fun v -> Array.sub v 0 l) vectors in
      let triples =
        Array.map
          (fun v ->
            Array.init m (fun i ->
                {
                  Mpc.a = v.(l + i);
                  b = v.(l + m + i);
                  c = v.(l + (2 * m) + i);
                }))
          vectors
      in
      let wires, _stats = Mpc.eval t.circuit ~inputs:x_shares ~triples in
      (* Beaver traffic: per gate, every server sends its two openings to
         the leader, which broadcasts the reconstructed pair. *)
      for _ = 1 to m do
        for i = 0 to t.s - 1 do
          if i <> leader then send t ~src:i ~dst:leader (2 * elt)
        done;
        broadcast_from t ~src:leader (2 * elt)
      done;
      (* validity decision: random combination of assert-zero wires *)
      for i = 0 to t.s - 1 do
        if i <> leader then send t ~src:i ~dst:leader elt
      done;
      broadcast_from t ~src:leader 1;
      Mpc.decide ~rng:t.rng t.circuit wires
    end

  (** Process one client's packets (one sealed packet per server).
      Returns true iff the submission was accepted and accumulated. *)
  let submit t ~client_id (pk : Client.packets) : bool =
    if Array.length pk.Client.sealed <> t.s then
      invalid_arg "Cluster.submit: one packet per server required";
    Trace.with_span "cluster.submit"
      ~attrs:[ ("client", string_of_int client_id) ]
    @@ fun () ->
    Metrics.time h_submit @@ fun () ->
    let leader = t.next_leader in
    t.next_leader <- (t.next_leader + 1) mod t.s;
    let received =
      Array.mapi
        (fun i packet -> Server.receive t.servers.(i) ~client_id packet)
        pk.Client.sealed
    in
    let vector_of = function
      | Some (_, v) -> v
      | None -> assert false (* guarded by the Option.is_none sweep *)
    in
    let ok =
      if Array.exists Option.is_none received then false
      else begin
        let vectors = Array.map vector_of received in
        match t.mode with
        | No_robustness -> true
        | Robust_snip ->
          let subs = Array.map (Snip.submission_of_vector t.circuit) vectors in
          let ctx =
            match t.snip_ctx with
            | Some ctx -> ctx
            | None -> assert false (* built for every Robust_snip deployment *)
          in
          run_snip_check t ctx ~leader subs
        | Robust_mpc -> run_mpc_check t ~leader vectors
      end
    in
    if ok then begin
      Trace.with_span "server.aggregate" (fun () ->
          Array.iteri
            (fun i r -> Server.accumulate t.servers.(i) (vector_of r))
            received);
      t.accepted <- t.accepted + 1;
      Metrics.incr m_accepted
    end
    else begin
      t.rejected <- t.rejected + 1;
      Metrics.incr m_rejected
    end;
    maybe_rotate_batch t;
    maybe_rotate_epoch t;
    ok

  (** Publish: every server reveals its accumulator (counted as a broadcast
      of k' elements); anyone can sum them and run the AFE decode. Optional
      [dp_alpha] makes each server add its distributed-noise share first
      (§7). *)
  let publish ?dp_alpha t : F.t array =
    Trace.with_span "server.publish" @@ fun () ->
    let parts =
      Array.mapi
        (fun i srv ->
          broadcast_from t ~src:i (t.trunc_len * elt);
          match dp_alpha with
          | None -> Server.publish srv
          | Some alpha -> Server.publish ~dp_noise:(t.rng, alpha) srv)
        t.servers
    in
    Array.init t.trunc_len (fun j ->
        Array.fold_left (fun acc p -> F.add acc p.(j)) F.zero parts)

  (** Fold another cluster's state into this one: accumulators add
      point-wise, counters and link traffic add. Both clusters must share
      the deployment parameters (same circuit, servers, master). Used by
      {!Parallel} to merge per-domain replicas after a multicore batch. *)
  let merge_into ~(dst : t) (src : t) =
    if dst.s <> src.s || dst.trunc_len <> src.trunc_len
       || dst.batch_size <> src.batch_size || dst.mode <> src.mode
       || dst.epoch_size <> src.epoch_size
    then invalid_arg "Cluster.merge_into: mismatched deployments";
    Array.iteri
      (fun i srv ->
        let d = dst.servers.(i) in
        for j = 0 to dst.trunc_len - 1 do
          d.Server.accumulator.(j) <-
            F.add d.Server.accumulator.(j) srv.Server.accumulator.(j)
        done;
        d.Server.accepted <- d.Server.accepted + srv.Server.accepted)
      src.servers;
    dst.accepted <- dst.accepted + src.accepted;
    dst.rejected <- dst.rejected + src.rejected;
    Array.iteri
      (fun i row ->
        Array.iteri (fun j b -> dst.links.(i).(j) <- dst.links.(i).(j) + b) row)
      src.links;
    (* Merge the Appendix-I rotation schedule: [batches - 1] full batches
       plus the partial one, on each side, give the total submissions ever
       processed; re-deriving (batches, processed_in_batch) from that total
       keeps the merged counters identical to a sequential run's, so no
       secret ever serves more than batch_size submissions. If the merge
       crossed a batch boundary, resample the secrets now rather than
       letting the stale r overstay its budget. *)
    let total =
      (((dst.batches - 1) + (src.batches - 1)) * dst.batch_size)
      + dst.processed_in_batch + src.processed_in_batch
    in
    let batches = (total / dst.batch_size) + 1 in
    let crossed = batches > dst.batches in
    dst.batches <- batches;
    dst.processed_in_batch <- total mod dst.batch_size;
    if crossed then resample_batch_secrets dst;
    (* Epoch rotation follows the same total-derivation rule as batches:
       the merged counters match what a sequential run over the union
       would hold. Crossing an epoch boundary during the merge drops the
       per-submission tables now — replicas' nonces from the closed epoch
       must not outlive it. (Table contents are replica-local either way;
       only the counters are sequential-equivalent.) *)
    if dst.epoch_size > 0 then begin
      let total_epoch_subs =
        (((dst.epoch + src.epoch) * dst.epoch_size) + dst.submissions_in_epoch)
        + src.submissions_in_epoch
      in
      let epoch = total_epoch_subs / dst.epoch_size in
      let crossed = epoch > dst.epoch in
      dst.epoch <- epoch;
      dst.submissions_in_epoch <- total_epoch_subs mod dst.epoch_size;
      if crossed then
        Array.iter
          (fun srv ->
            Hashtbl.reset srv.Server.seen_nonces;
            Hashtbl.reset srv.Server.prev_nonces;
            Hashtbl.reset srv.Server.decisions;
            Hashtbl.reset srv.Server.prev_decisions;
            srv.Server.decided_in_epoch <- 0;
            srv.Server.epoch <- epoch)
          dst.servers
    end;
    (* Leader rotation is per submission (Figure 5): the merged cluster
       continues the global round-robin exactly where a sequential run
       over the union would be. *)
    dst.next_leader <- (dst.accepted + dst.rejected) mod dst.s

  (** Bytes sent by server [i] over the run. *)
  let bytes_sent t i = Array.fold_left ( + ) 0 t.links.(i)

  let total_server_bytes t =
    let acc = ref 0 in
    Array.iter (Array.iter (fun b -> acc := !acc + b)) t.links;
    !acc
end

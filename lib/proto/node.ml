(** The server protocol of the TCP deployment, without sockets, files or
    clocks (see the interface). *)

open Transport
module Metrics = Prio_obs.Metrics
module Trace = Prio_obs.Trace

(* Admission, per-stage latency, journal replay and two-phase-commit
   channels (docs/OBSERVABILITY.md). The live scrape ([q] frames) pulls
   the stage percentiles out of the running server process. *)
let m_shed = Metrics.counter "prio_net_shed_total"
let g_pending = Metrics.gauge "prio_net_pending_depth"
let m_journal_replayed = Metrics.counter "prio_journal_replayed_total"
let m_commit_acks = Metrics.counter "prio_commit_acks_total"
let m_commit_failures = Metrics.counter "prio_commit_failures_total"
let m_commit_repairs = Metrics.counter "prio_commit_repairs_total"
let h_stage_admit = Metrics.histogram "prio_stage_admit_seconds"
let h_stage_verify = Metrics.histogram "prio_stage_verify_seconds"
let h_stage_aggregate = Metrics.histogram "prio_stage_aggregate_seconds"

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Prio_circuit.Circuit.Make (F)
  module Snip = Prio_snip.Snip.Make (F)
  module W = Wire.Make (F)
  module Server = Server.Make (F)
  module Ckpt = Checkpoint.Make (F)
  module Rng = Prio_crypto.Rng

  type config = {
    circuit : C.t;
    trunc_len : int;
    num_servers : int;
    master : Bytes.t;
    batch_seed : Bytes.t;
        (** all servers derive the shared batch secrets (r, z) from this;
            in deployment the leader would distribute it over the
            authenticated server channels *)
  }

  (* ------------------------- the protocol core ------------------------- *)

  (* One server's protocol without sockets, files or clocks; it reaches
     the outside only through [effects] (see the interface). *)
  module Node = struct
    type effects = {
      scatter :
        ?skip:int -> Bytes.t ->
        (unit -> (Bytes.t, protocol_error) result option array);
      drop : int -> unit;
      journal : Checkpoint.Make(F).journal_entry -> bool;
      snapshot : Server.t -> unit;
    }

    type pending = {
      share : F.t array;
      mutable state : Snip.server_state option;
    }

    (* Everything fixed for the whole deployment, built once: the batch
       secrets (r, z) with their Lagrange weights and NTT plans, over the
       config's circuit as deployed. *)
    type context = { cfg : config; batch : Snip.batch_ctx }

    let context (cfg : config) =
      { cfg;
        batch =
          Snip.make_batch_ctx ~rng:(Rng.of_seed cfg.batch_seed)
            ~circuit:cfg.circuit ~num_servers:cfg.num_servers }

    type t = {
      cx : context;
      tuning : tuning;
      fx : effects;
      server : Server.t;
      pending : (int, pending) Hashtbl.t;
      (* Leader bookkeeping for the two-phase commit: client ids whose
         verdict is journaled here but not yet acknowledged by every
         follower. A duplicate [V] for such an id triggers a repair
         re-broadcast instead of a plain re-ack. *)
      uncommitted : (int, unit) Hashtbl.t;
      mutable since_ckpt : int;  (** decisions since the last snapshot *)
    }

    let create ~tuning cx ~id fx =
      let cfg = cx.cfg in
      { cx; tuning; fx;
        server =
          Server.create ~id ~num_servers:cfg.num_servers ~master:cfg.master
            ~trunc_len:cfg.trunc_len
            ~payload_elements:
              (C.num_inputs cfg.circuit + Snip.proof_num_elements cfg.circuit);
        pending = Hashtbl.create 64; uncommitted = Hashtbl.create 16;
        since_ckpt = 0 }

    let server t = t.server
    let depth t = Hashtbl.length t.pending
    let id t = t.server.Server.id

    let note_depth t = Metrics.set g_pending (float_of_int (depth t))

    (* span attributes naming this server and the submission at hand *)
    let attrs t client_id =
      [ ("server", string_of_int (id t)); ("client", string_of_int client_id) ]

    (* Journal entries past the restored snapshot's [journal_seq]
       watermark replay into the running state — that is how a server
       killed between journaling a decision and the next snapshot still
       recovers it. *)
    let replay t entries =
      let floor = t.server.Server.journal_seq in
      List.iter
        (fun e ->
          if
            e.Ckpt.j_seq > floor
            && Server.record_decision t.server ~client_id:e.Ckpt.j_client
                 e.Ckpt.j_accepted
          then begin
            if e.Ckpt.j_accepted then Server.accumulate t.server e.Ckpt.j_share;
            Metrics.incr m_journal_replayed;
            (* the replayed record is still in the journal: count it
               toward the next snapshot, so the journal stays within
               [checkpoint_every] records across restarts *)
            t.since_ckpt <- t.since_ckpt + 1;
            (* conservatively treat replayed decisions as possibly
               part-broadcast: a retried [V] will repair them *)
            if id t = 0 then Hashtbl.replace t.uncommitted e.Ckpt.j_client ();
            Trace.event "server.journal_replayed"
              ~attrs:(attrs t e.Ckpt.j_client)
          end)
        entries

    (* Write-ahead the verdict: append to the decision journal before the
       decision is applied or acknowledged anywhere. Returns [false] only
       when the journal could not take the record — the caller decides
       whether that degrades durability (leader) or availability
       (follower). Idempotent: an already-recorded decision is already
       journaled. *)
    let journal_decision t ~client_id accepted share =
      match Server.decision t.server ~client_id with
      | Some _ -> true
      | None ->
        t.fx.journal
          { Ckpt.j_seq = t.server.Server.journal_seq + 1;
            j_client = client_id;
            j_accepted = accepted;
            j_epoch = t.server.Server.epoch;
            (* replay only accumulates the truncated prefix *)
            j_share =
              (if accepted then Array.sub share 0 t.cx.cfg.trunc_len else [||]) }

    (* The one decision path, run once [journal_decision] has written the
       verdict ahead: [apply] folds an accepted share into the
       accumulator (a reject has nothing to fold), and [retire] drops the
       submission from the admission queue and records its verdict.
       Streaming aggregation: the share drops with the pending entry, so
       nothing per-submission outlives the decision. [retire] then runs
       the durability/flat-memory schedule: rotate the per-submission
       tables every [epoch_size] decisions and snapshot every
       [checkpoint_every] decisions (a rotation always snapshots, so
       restarting from it cannot resurrect a closed epoch). *)
    let apply ?ctx t ~client_id share =
      Trace.with_span_ctx ?ctx "server.aggregate" ~attrs:(attrs t client_id)
      @@ fun () ->
      Metrics.time h_stage_aggregate (fun () ->
          Server.accumulate t.server share)

    let retire t ~client_id verdict =
      Hashtbl.remove t.pending client_id;
      note_depth t;
      ignore (Server.record_decision t.server ~client_id verdict : bool);
      let rotate =
        t.tuning.epoch_size > 0
        && t.server.Server.decided_in_epoch >= t.tuning.epoch_size
      in
      if rotate then begin
        Server.rotate_epoch t.server;
        (* decisions the rotation aged out can no longer be re-acked, so
           they can no longer be repaired either *)
        Hashtbl.iter
          (fun client_id () ->
            if Server.decision t.server ~client_id = None then
              Hashtbl.remove t.uncommitted client_id)
          (Hashtbl.copy t.uncommitted)
      end;
      t.since_ckpt <- t.since_ckpt + 1;
      if rotate || t.since_ckpt >= t.tuning.checkpoint_every then begin
        t.since_ckpt <- 0;
        t.fx.snapshot t.server
      end

    let prepare t (p : pending) =
      Snip.server_prepare t.cx.batch
        (Snip.submission_of_vector t.cx.cfg.circuit p.share)

    (* One leader round: post [payload] to every follower but [skip], run
       the leader's own step [local] while they work, then gather every
       reply. The followers' SNIP work and journal appends overlap instead
       of adding up. *)
    let broadcast t ?skip payload local =
      let gather = t.fx.scatter ?skip payload in
      let mine = local () in
      (mine, gather ())

    let pair_bytes a b = Bytes.cat (F.to_bytes a) (F.to_bytes b)
    let has_tag c r = Bytes.length r > 0 && Bytes.get r 0 = c
    let ack accepted = tagged (if accepted then 'K' else 'R') Bytes.empty

    (* gossip and decision frames carry the leader's open verify span as
       context, so every follower's spans join the client's trace *)
    let id_ctx client_id = Bytes.cat (put_u32 client_id) (ctx_bytes ())

    (* Two-phase decision broadcast: send [a]/[r] to the followers and
       wait for each [c] commit ack, meaning that follower journaled the
       verdict before replying. [true] only when every follower sent a
       genuine ack. An [E] reply (e.g. the follower's journal is failing)
       keeps the connection; any other reply means the streams are
       desynced. *)
    let commit_all t ?skip ~client_id accepted local =
      let (), replies =
        broadcast t ?skip
          (tagged (if accepted then 'a' else 'r') (id_ctx client_id))
          local
      in
      let all_acked = ref true in
      Array.iteri
        (fun j r ->
          match r with
          | None -> ()
          | Some (Ok r) when has_tag 'c' r -> Metrics.incr m_commit_acks
          | Some r ->
            (match r with
            | Ok r when not (has_tag 'E' r) -> t.fx.drop j
            | Ok _ | Error _ -> ());
            Metrics.incr m_commit_failures;
            all_acked := false)
        replies;
      !all_acked

    (* The leader's commit point, for a verdict and for a degraded abort
       alike: write-ahead the verdict before any [a]/[r] goes out (a
       journal failure here degrades durability, like a failed checkpoint
       — the decision still stands), then run the acked broadcast,
       applying the verdict while the followers journal theirs. The
       client is only acked once every follower confirmed its journal
       write; a partial broadcast returns [false] and is repaired by the
       client's resubmission. [journal_decision] is idempotent against an
       already-recorded verdict, so a repeated abort (client retry after
       a degraded round) cannot journal a contradictory decision. *)
    let commit t ?skip ~client_id accepted share =
      ignore (journal_decision t ~client_id accepted share : bool);
      commit_all t ?skip ~client_id accepted (fun () ->
          if accepted then apply t ~client_id share)

    (* leader: drive the two SNIP gossip rounds for one pending client.
       Any follower failure aborts just this submission (a journaled,
       acked [r] broadcast to the other followers) and reports the first
       failed follower, so the leader can degrade instead of dying. *)
    let verify t client_id (p : pending) =
      let exception Degraded of int * protocol_error in
      try
        let expect_pair j tag = function
          | Error err -> Error err
          | Ok r -> (
            let bad why =
              t.fx.drop j;
              Error (Bad_frame why)
            in
            if Bytes.length r = 0 then bad "empty gossip reply"
            else if Bytes.get r 0 <> tag then
              bad (Printf.sprintf "unexpected gossip reply %C" (Bytes.get r 0))
            else
              match W.field_pair_opt r ~off:1 with
              | Some pair -> Ok pair
              | None -> bad "bad gossip payload")
        in
        (* fold every follower's pair into the leader's own; every reply
           is checked (dropping desynced links) before the first failure
           aborts the submission *)
        let sum_pairs tag (a, b) replies =
          let a = ref a and b = ref b and failed = ref None in
          Array.iteri
            (fun j r ->
              match Option.map (expect_pair j tag) r with
              | None -> ()
              | Some (Ok (x, y)) ->
                a := F.add !a x;
                b := F.add !b y
              | Some (Error err) ->
                if Option.is_none !failed then failed := Some (j, err))
            replies;
          match !failed with
          | Some (j, err) -> raise (Degraded (j, err))
          | None -> (!a, !b)
        in
        let id_ctx = id_ctx client_id in
        (* round 1: followers open while the leader prepares its share *)
        let (my_state, my_opening), replies =
          broadcast t (tagged 'o' id_ctx) (fun () -> prepare t p)
        in
        let d, e =
          sum_pairs 'O' (my_opening.Snip.d, my_opening.Snip.e) replies
        in
        (* round 2: broadcast sums; followers decide alongside the leader *)
        let my_verdict, replies =
          broadcast t
            (tagged 'd' (Bytes.cat id_ctx (pair_bytes d e)))
            (fun () -> Snip.server_decide_share t.cx.batch my_state ~d ~e)
        in
        let sigma, zero =
          sum_pairs 'S' (my_verdict.Snip.sigma, my_verdict.Snip.zero) replies
        in
        let accepted = F.is_zero sigma && F.is_zero zero in
        Ok (accepted, commit t ~client_id accepted p.share)
      with Degraded (j, err) ->
        ignore (commit t ~skip:j ~client_id false p.share : bool);
        Error (j, err)

    let commit_pending () =
      error_frame Commit_pending "decision journaled, follower ack outstanding"

    (* One protocol frame in, its reply out, plus whether the connection
       stays open ([`Close]: the stream is desynced or hostile). Every
       frame but [Q] opens with client_id ‖ ctx. *)
    let handle t frame =
      let client len k =
        if Bytes.length frame < len then
          (error_frame Malformed_frame "short frame", `Close)
        else
          let tctx, off = get_ctx frame 5 in
          (k (get_u32 frame 1) tctx off, `Keep)
      in
      match Bytes.get frame 0 with
      | exception Invalid_argument _ ->
        (error_frame Malformed_frame "empty frame", `Close)
      | 'P' ->
        client 7 (fun client_id tctx off ->
            let sealed = Bytes.sub frame off (Bytes.length frame - off) in
            Trace.with_span_ctx ?ctx:tctx "server.admit"
              ~attrs:(attrs t client_id)
            @@ fun () ->
            Metrics.time h_stage_admit @@ fun () ->
            match Server.decision t.server ~client_id with
            | Some accepted ->
              (* duplicate of a finished submission: idempotent re-ack *)
              ack accepted
            | None ->
              if Hashtbl.mem t.pending client_id then
                (* duplicate of an in-flight upload (lost ack): re-ack
                   rather than replay-reject and corrupt the retry *)
                tagged 'K' Bytes.empty
              else if depth t >= t.tuning.max_pending then begin
                (* bounded admission queue: shed the upload with a
                   retryable refusal instead of growing without limit —
                   the client's backoff schedule absorbs the burst *)
                Metrics.incr m_shed;
                Trace.event "server.shed" ~attrs:(attrs t client_id);
                error_frame Busy "admission queue full"
              end
              else (
                match Server.receive t.server ~client_id sealed with
                | None -> tagged 'R' Bytes.empty
                | Some (_, share) ->
                  Hashtbl.replace t.pending client_id { share; state = None };
                  note_depth t;
                  tagged 'K' Bytes.empty))
      | 'V' ->
        client 5 (fun client_id tctx _ ->
            Trace.with_span_ctx ?ctx:tctx "server.verify"
              ~attrs:(attrs t client_id)
            @@ fun () ->
            if id t <> 0 then error_frame Unavailable "not the leader"
            else
              match Server.decision t.server ~client_id with
              | Some accepted when Hashtbl.mem t.uncommitted client_id ->
                (* the verdict is journaled here but some follower never
                   acked it (crash mid-broadcast, or replayed from the
                   journal after a leader restart): repair by re-running
                   the acked broadcast before re-acking the client *)
                if commit_all t ~client_id accepted ignore then begin
                  Hashtbl.remove t.uncommitted client_id;
                  Metrics.incr m_commit_repairs;
                  Trace.event "server.commit_repaired"
                    ~attrs:[ ("client", string_of_int client_id) ];
                  ack accepted
                end
                else commit_pending ()
              | Some accepted -> ack accepted
              | None -> (
                match Hashtbl.find_opt t.pending client_id with
                | None ->
                  (* no verdict and no share: the client only verifies
                     once every server acked its upload, so this leader
                     lost the share in a restart before journaling a
                     verdict — no server holds one. A resubmission
                     re-seeds the share; refusing would lose it. *)
                  error_frame Commit_pending "no pending share; resubmit"
                | Some p -> (
                  let verdict =
                    Metrics.time h_stage_verify (fun () -> verify t client_id p)
                  in
                  retire t ~client_id
                    (match verdict with Ok (a, _) -> a | Error _ -> false);
                  match verdict with
                  | Ok (accepted, true) -> ack accepted
                  | Ok (_, false) ->
                    (* partial broadcast: the verdict is durable here but
                       not everywhere — make the client come back
                       ([Commit_pending] drives a resubmission) and
                       remember to repair on that retry *)
                    Hashtbl.replace t.uncommitted client_id ();
                    commit_pending ()
                  | Error (j, err) ->
                    (* graceful degradation: this submission is cleanly
                       rejected, the leader keeps serving *)
                    error_frame Unavailable
                      (Printf.sprintf "follower %d: %s" (j + 1)
                         (string_of_protocol_error err)))))
      | 'o' ->
        client 5 (fun client_id tctx _ ->
            match Hashtbl.find_opt t.pending client_id with
            | None -> error_frame Unknown_client (string_of_int client_id)
            | Some p ->
              (* follower's share of the verify stage, joined to the
                 leader's span via the gossip-frame context *)
              Trace.with_span_ctx ?ctx:tctx "server.verify"
                ~attrs:(attrs t client_id)
              @@ fun () ->
              let st, opening =
                Metrics.time h_stage_verify (fun () -> prepare t p)
              in
              p.state <- Some st;
              tagged 'O' (pair_bytes opening.Snip.d opening.Snip.e))
      | 'd' ->
        client 5 (fun client_id tctx off ->
            match W.field_pair_opt frame ~off with
            | None -> error_frame Malformed_frame "bad (d,e) payload"
            | Some (d, e) -> (
              match Hashtbl.find_opt t.pending client_id with
              | None -> error_frame Unknown_client (string_of_int client_id)
              | Some { state = None; _ } ->
                error_frame Malformed_frame "decide before opening"
              | Some { state = Some st; _ } ->
                Trace.with_span_ctx ?ctx:tctx "server.decide"
                  ~attrs:(attrs t client_id)
                @@ fun () ->
                let v =
                  Metrics.time h_stage_verify (fun () ->
                      Snip.server_decide_share t.cx.batch st ~d ~e)
                in
                tagged 'S' (pair_bytes v.Snip.sigma v.Snip.zero)))
      | ('a' | 'r') as tag ->
        client 5 (fun client_id tctx _ ->
            let accepted = tag = 'a' in
            match
              ( Server.decision t.server ~client_id,
                Hashtbl.find_opt t.pending client_id )
            with
            | Some _, _ ->
              (* already journaled and applied (the previous ack was
                 lost): re-ack, never re-accumulate *)
              tagged 'c' Bytes.empty
            | None, None when accepted ->
              (* no share to aggregate: the upload never landed (or a
                 restart dropped it). Refusing the ack makes the leader
                 report [Commit_pending]; the client's resubmission
                 re-seeds the share and the retried broadcast heals. *)
              error_frame Unknown_client (string_of_int client_id)
            | None, p ->
              (* two-phase commit: journal first (write-ahead), then apply
                 the verdict and ack with [c]. If the journal cannot take
                 the record, refuse the ack — accumulating an unjournaled
                 accept would desync the servers after a crash. An abort
                 needs no share, so it also settles an upload that never
                 landed. *)
              let share = match p with Some p -> p.share | None -> [||] in
              if not (journal_decision t ~client_id accepted share) then
                error_frame Unavailable "decision journal failed"
              else begin
                if accepted then apply ?ctx:tctx t ~client_id share
                else
                  (* nothing to fold: the span marks, in the leader's
                     trace, where this follower dropped the share *)
                  Trace.with_span_ctx ?ctx:tctx "server.discard"
                    ~attrs:(attrs t client_id) ignore;
                retire t ~client_id accepted;
                tagged 'c' Bytes.empty
              end)
      | 'Q' -> (tagged 'A' (W.vector_to_bytes (Server.publish t.server)), `Keep)
      | c -> (error_frame Unknown_tag (Printf.sprintf "%C" c), `Close)
  end

  let context_config (cx : Node.context) = cx.Node.cfg
end

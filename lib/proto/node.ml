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
    type origin = Client of (Bytes.t -> unit) | Follower of int

    type effects = {
      send : int -> Bytes.t -> unit;
      drop : int -> unit;
      journal : Checkpoint.Make(F).journal_entry -> bool;
      snapshot : Server.t -> unit;
    }

    type pending = {
      share : F.t array;
      mutable state : Snip.server_state option;
    }

    (* A leader round for one submission, from the [V] that opens it to
       the answer of every [V] waiting on it. Each stage posts one frame
       to every follower and runs the leader's own step while they work;
       it ends when the last reply it is owed arrives, and the next
       stage starts from there. *)
    type stage =
      | Opening of Snip.server_state  (** [o] out; the leader's own state *)
      | Deciding  (** [d] out *)
      | Committing of Bytes.t option
          (** [a]/[r] out. [Some] holds a degraded abort's answer; [None]
              answers with the verdict once every follower acked *)

    type round = {
      client : int;
      share : F.t array;
      tctx : Trace.context option;  (** the [V]'s: each step's span parent *)
      mutable stage : stage;
      mutable accepted : bool;
      mutable left : int;  (** follower replies this stage still awaits *)
      mutable sum : F.t * F.t;  (** the leader's pair plus each reply's *)
      mutable failed : (int * protocol_error) option;  (** the first *)
      mutable waiters : (Bytes.t -> unit) list;  (** every [V], newest first *)
      opened : float option;  (** when a verify round opened; not a repair *)
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
      rounds : (int, round) Hashtbl.t;  (** leader: in flight, by client *)
      owed : round Queue.t array;
          (** leader: per follower, the rounds its next replies answer —
              a follower answers a link's frames in order *)
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
        rounds = Hashtbl.create 16;
        owed =
          Array.init
            (if id = 0 then cfg.num_servers - 1 else 0)
            (fun _ -> Queue.create ());
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

    let pair_bytes a b = Bytes.cat (F.to_bytes a) (F.to_bytes b)
    let ack accepted = tagged (if accepted then 'K' else 'R') Bytes.empty

    (* gossip and decision frames carry the leader's open verify span as
       context, so every follower's spans join the client's trace *)
    let id_ctx client_id = Bytes.cat (put_u32 client_id) (ctx_bytes ())

    let commit_pending () =
      error_frame Commit_pending "decision journaled, follower ack outstanding"

    (* ------------------------- leader rounds ------------------------- *)

    (* Post [payload] to every follower but [skip]; each then owes [r]
       one reply. *)
    let post t r ?skip payload =
      Array.iteri
        (fun j owed ->
          if skip <> Some j then begin
            Queue.push r owed;
            r.left <- r.left + 1;
            t.fx.send j payload
          end)
        t.owed

    (* A step after the first runs in a span of its own under the [V]'s
       context: the leader's spans cover its own work, not the wait *)
    let step r t f =
      Trace.with_span_ctx ?ctx:r.tctx "server.verify" ~attrs:(attrs t r.client)
        f

    (* Follower [j]'s reply to [r], or its failure, folded in: a pair
       sums into the round, a [c] is an ack. The last one due ends the
       stage. *)
    let rec answered t r j reply =
      r.left <- r.left - 1;
      (match reply with
      | Ok (Some (x, y)) ->
        let a, b = r.sum in
        r.sum <- (F.add a x, F.add b y)
      | Ok None -> Metrics.incr m_commit_acks
      | Error err ->
        (match r.stage with
        | Committing _ -> Metrics.incr m_commit_failures
        | _ -> ());
        if Option.is_none r.failed then r.failed <- Some (j, err));
      settle t r

    and settle t r =
      if r.left = 0 then
        match (r.stage, r.failed) with
        | Committing answer, _ -> finish t r answer
        | (Opening _ | Deciding), Some (j, err) ->
          (* graceful degradation: this submission is cleanly rejected
             everywhere — a journaled, acked [r] to the other followers
             — and the leader keeps serving *)
          let why =
            Printf.sprintf "follower %d: %s" (j + 1) (string_of_protocol_error err)
          in
          step r t (fun () ->
              commit t r ~skip:j false (Some (error_frame Unavailable why)))
        | Opening st, None ->
          (* round 2: broadcast the sums; followers decide alongside the
             leader *)
          let d, e = r.sum in
          step r t (fun () ->
              post t r (tagged 'd' (Bytes.cat (id_ctx r.client) (pair_bytes d e)));
              let v = Snip.server_decide_share t.cx.batch st ~d ~e in
              r.stage <- Deciding;
              r.sum <- (v.Snip.sigma, v.Snip.zero));
          settle t r
        | Deciding, None ->
          let sigma, zero = r.sum in
          step r t (fun () ->
              commit t r (F.is_zero sigma && F.is_zero zero) None)

    (* The leader's commit point, for a verdict and for a degraded abort
       alike: write-ahead the verdict before any [a]/[r] goes out (a
       journal failure here degrades durability, like a failed checkpoint
       — the decision still stands), post it, and apply and record it
       while the followers journal theirs. The client is only acked once
       every follower confirmed its journal write ({!finish}).
       [journal_decision] is idempotent against an already-recorded
       verdict, so a repeated abort cannot journal a contradictory
       decision. *)
    and commit t r ?skip accepted answer =
      ignore (journal_decision t ~client_id:r.client accepted r.share : bool);
      r.stage <- Committing answer;
      r.accepted <- accepted;
      post t r ?skip (tagged (if accepted then 'a' else 'r') (id_ctx r.client));
      if accepted then apply t ~client_id:r.client r.share;
      retire t ~client_id:r.client accepted;
      settle t r

    (* Every follower answered the commit: answer every [V] waiting. A
       partial broadcast leaves the verdict durable here but not
       everywhere — the client is made to come back ([Commit_pending]
       drives a resubmission) and the retry repairs it. *)
    and finish t r answer =
      Hashtbl.remove t.rounds r.client;
      (* the leader's verify stage is the whole round, waits included *)
      Option.iter
        (fun t0 -> Metrics.observe h_stage_verify (Metrics.now () -. t0))
        r.opened;
      let out =
        match (answer, r.failed) with
        | Some out, _ -> out
        | None, None ->
          if Hashtbl.mem t.uncommitted r.client then begin
            Hashtbl.remove t.uncommitted r.client;
            Metrics.incr m_commit_repairs;
            Trace.event "server.commit_repaired"
              ~attrs:[ ("client", string_of_int r.client) ]
          end;
          ack r.accepted
        | None, Some _ ->
          Hashtbl.replace t.uncommitted r.client ();
          commit_pending ()
      in
      List.iter (fun respond -> respond out) (List.rev r.waiters)

    (* Open a round for [client_id] and post its first frame. *)
    let open_round t client_id ~share ~tctx ~accepted stage respond payload =
      let r =
        { client = client_id; share; tctx; stage; accepted; left = 0;
          sum = (F.zero, F.zero); failed = None; waiters = [ respond ];
          opened =
            (match stage with
            | Committing _ -> None
            | Opening _ | Deciding -> Some (Metrics.now ())) }
      in
      Hashtbl.replace t.rounds client_id r;
      post t r payload;
      r

    let follower_failed t j err =
      let owed = List.of_seq (Queue.to_seq t.owed.(j)) in
      Queue.clear t.owed.(j);
      List.iter (fun r -> answered t r j (Error err)) owed

    (* Follower [j]'s next frame answers the oldest request it owes. An
       [E] refusal fails just that round; any other reply the stage does
       not expect means the link is out of step, so it is dropped with
       every round still waiting on it. *)
    let reply t j frame =
      match Queue.peek_opt t.owed.(j) with
      | None -> t.fx.drop j
      | Some r -> (
        let pair tag =
          Result.bind (expect_reply tag frame) (fun _ ->
              match W.field_pair_opt frame ~off:1 with
              | Some pair -> Ok (Some pair)
              | None -> Error (Bad_frame "bad gossip payload"))
        in
        let reply =
          match r.stage with
          | Opening _ -> pair 'O'
          | Deciding -> pair 'S'
          | Committing _ -> Result.map (fun _ -> None) (expect_reply 'c' frame)
        in
        match reply with
        | Error (Bad_frame _ as err) ->
          t.fx.drop j;
          follower_failed t j err
        | _ ->
          ignore (Queue.pop t.owed.(j) : round);
          answered t r j reply)

    (* One client frame in, its reply out — empty when a round answers
       later — plus whether the connection stays open ([`Close]: the
       stream is desynced or hostile). Every frame but [Q] opens with
       client_id ‖ ctx. *)
    let request t frame respond =
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
              match
                ( Hashtbl.find_opt t.rounds client_id,
                  Server.decision t.server ~client_id )
              with
              | Some r, _ ->
                (* a retried [V] while the round is in flight: no second
                   round, the same answer *)
                r.waiters <- respond :: r.waiters;
                Bytes.empty
              | None, Some accepted when Hashtbl.mem t.uncommitted client_id ->
                (* the verdict is journaled here but some follower never
                   acked it (crash mid-broadcast, or replayed from the
                   journal after a leader restart): repair by re-running
                   the acked broadcast before re-acking the client *)
                settle t
                  (open_round t client_id ~share:[||] ~tctx ~accepted
                     (Committing None) respond
                     (tagged (if accepted then 'a' else 'r') (id_ctx client_id)));
                Bytes.empty
              | None, Some accepted -> ack accepted
              | None, None -> (
                match Hashtbl.find_opt t.pending client_id with
                | None ->
                  (* no verdict and no share: the client only verifies
                     once every server acked its upload, so this leader
                     lost the share in a restart before journaling a
                     verdict — no server holds one. A resubmission
                     re-seeds the share; refusing would lose it. *)
                  error_frame Commit_pending "no pending share; resubmit"
                | Some p ->
                  (* the SNIP gossip, round 1: the followers open while
                     the leader prepares its share *)
                  let r =
                    open_round t client_id ~share:p.share ~tctx ~accepted:false
                      Deciding respond (tagged 'o' (id_ctx client_id))
                  in
                  let st, opening = prepare t p in
                  r.stage <- Opening st;
                  r.sum <- (opening.Snip.d, opening.Snip.e);
                  settle t r;
                  Bytes.empty))
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
            | None, _ when Hashtbl.mem t.rounds client_id ->
              (* only a leader has rounds, and its own round decides *)
              error_frame Unavailable "verify in flight"
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

    let handle t origin frame =
      match origin with
      | Follower j ->
        reply t j frame;
        `Keep
      | Client respond ->
        let out, keep = request t frame respond in
        if Bytes.length out > 0 then respond out;
        keep
  end

  let context_config (cx : Node.context) = cx.Node.cfg
end

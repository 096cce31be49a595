(** A fault-tolerant TCP deployment of Prio.

    Everything else in [prio_proto] runs the s servers inside one process
    (with exact byte accounting); this module runs them as separate
    processes speaking length-prefixed frames over real sockets, so the
    system can be deployed the way the paper's Go implementation was: one
    listener per server, clients uploading one sealed packet per server,
    and the leader driving the two SNIP gossip rounds over persistent
    server-to-server connections. The code is in three units: the wire
    layer and the frame grammar ({!Transport}, included here), the
    socket-free server protocol ({!Node}, re-exported as [Make(F).Node]),
    and this one: the TCP driver around a node, launch, supervision and
    the client.

    Fault tolerance (the paper's §2/§5 threat model — faulty or malicious
    clients *and* servers — applied to the wire):
    - a server never blocks on a read: its event loop reassembles each
      connection's frames as bytes arrive, and the leader keeps a round
      per submission in flight, so a slow or stalled peer holds up only
      its own connection; a follower's reply is due [io_timeout] after
      the request, and every blocking write has a deadline;
    - frames are size-capped; a peer claiming an enormous frame gets an
      [E]rror frame instead of an allocation;
    - protocol deviations surface as {!protocol_error} values (never
      [assert]/[Not_found] crashes) and are answered with [E] frames;
    - client submissions retry with exponential backoff + jitter
      ({!Retry.with_backoff}) and are idempotent: servers re-acknowledge
      duplicate uploads/verifies with the original verdict
      ({!Server.decision}) instead of re-processing them;
    - a leader whose follower times out, crashes, or answers garbage
      mid-gossip degrades gracefully: it aborts that one submission
      everywhere, answers the client with [E Unavailable], and keeps
      serving;
    - decisions are a two-phase acked commit: every server appends the
      verdict to its fsynced, HMAC-chained decision journal before
      acknowledging ([c]); the leader acks the client only once every
      follower has acked, and answers [E Commit_pending] otherwise so
      the client resubmits and the leader repairs the partial broadcast
      — a follower dying between receiving a decision and journaling it
      can no longer strand an accepted share outside every checkpoint;
    - {!poll_servers} supervises the forked processes ([waitpid WNOHANG])
      and {!restart_server} revives a dead one on its original port;
    - the whole frame path accepts a deterministic fault injector
      ({!Faults}) so chaos runs replay exactly from a seed.

    See docs/PROTOCOL.md §8 for the failure matrix. *)

include Transport

(* Client-side resubmission rounds after a [Commit_pending] verify reply
   (the leader decided, a follower has not acknowledged its copy) before
   the submission gives up as rejected. *)
let max_resubmits = 4

(* ---------------------------- observability ---------------------------- *)

module Metrics = Prio_obs.Metrics
module Trace = Prio_obs.Trace
module Clock = Prio_obs.Clock
module Report = Prio_obs.Report

(* A client's post-to-reply time per upload and verify. *)
let h_rpc = Metrics.histogram "prio_net_rpc_seconds"

(* Durability channels (docs/OBSERVABILITY.md): snapshot writes and
   restores, and the decision journal each server appends to before
   acknowledging a decision. *)
let m_ckpt_writes = Metrics.counter "prio_ckpt_writes_total"
let m_ckpt_errors = Metrics.counter "prio_ckpt_errors_total"
let m_restores = Metrics.counter "prio_ckpt_restores_total"
let m_restore_rejected = Metrics.counter "prio_ckpt_rejected_total"
let h_restore = Metrics.histogram "prio_ckpt_restore_seconds"
let h_stage_checkpoint = Metrics.histogram "prio_stage_checkpoint_seconds"
let m_journal_appends = Metrics.counter "prio_journal_appends_total"
let m_journal_truncations = Metrics.counter "prio_journal_truncations_total"
let m_journal_errors = Metrics.counter "prio_journal_errors_total"
let h_journal_fsync = Metrics.histogram "prio_journal_fsync_seconds"

(* Supervisor view (recorded in the probing process, not the servers):
   how many servers the last probe sweep found broken, and how many
   probe-driven restarts were issued over this process's lifetime. *)
let g_sup_down = Metrics.gauge "prio_supervisor_down"
let g_sup_degraded = Metrics.gauge "prio_supervisor_degraded"
let m_probe_restarts = Metrics.counter "prio_supervisor_probe_restarts_total"

(* ------------------------------ deployment ----------------------------- *)

module Make (F : Prio_field.Field_intf.S) = struct
  include Node.Make (F)
  module W = Wire.Make (F)
  module Server = Server.Make (F)
  module Client = Client.Make (F)
  module Ckpt = Checkpoint.Make (F)
  module Rng = Prio_crypto.Rng

  (* a client connection of [serve] and the bytes it sent so far *)
  type conn = { fd : Unix.file_descr; inbox : Inbox.t }

  (** Run one server's event loop, the TCP driver around a {!Node}, until
      an [X] frame arrives. [listen_fd] must already be bound and
      listening (so the caller knows the port). The leader (id 0)
      additionally dials the followers — lazily redialing ones that died
      and came back. [faults], if given, sits on this server's
      frame-receive path (and may [Crash] the process). [cx] is the
      deployment's one {!Node.context}, built by the caller before the
      fork, so nothing is derived here.

      With [tuning.checkpoint_dir] set, the server resumes from its
      latest valid snapshot at startup (rejecting anything corrupted,
      truncated, stale below [restore_min_epoch], or keyed to a different
      master — those fall back to a clean epoch restart), replays the
      decision-journal suffix, and persists a new snapshot every
      [checkpoint_every] decisions. *)
  let serve ?(tuning = default_tuning) ?faults ?(restore_min_epoch = 0)
      (cx : Node.context) ~id ~(listen_fd : Unix.file_descr)
      ~(follower_addrs : Unix.sockaddr array) =
    ignore_sigpipe ();
    let cfg = context_config cx in
    (* this process's registry answers the live scrape: zero whatever the
       forking parent had accumulated, and time stages on the system
       clock even if the parent had installed a manual one *)
    Metrics.reset ();
    Metrics.set_clock Clock.system;
    (match tuning.trace_dir with
    | None -> ()
    | Some _ ->
      (* own recorder, origin-labeled so per-process dumps merge into one
         cross-process tree ({!Trace.merge}) *)
      Trace.install
        (Trace.create ~capacity:65536 ~origin:("server" ^ string_of_int id) ()));
    let ckpt_key = Checkpoint.derive_key ~master:cfg.master ~server_id:id in
    (* a durability failure is counted and traced, never fatal *)
    let failed counter event why =
      Metrics.incr counter;
      Trace.event event ~attrs:[ ("server", string_of_int id); ("error", why) ]
    in
    let journal_error e =
      failed m_journal_errors "server.journal_error"
        (Checkpoint.string_of_error e)
    in
    (* Decision journal: the write-ahead tail the snapshot has not
       absorbed, opened (and chain-verified) below, before serving. *)
    let journal : Ckpt.journal option ref = ref None in
    let last_ckpt_at = ref nan in
    let write_checkpoint state =
      match tuning.checkpoint_dir with
      | None -> ()
      | Some dir -> (
        (* nested under whatever decision span is open, so checkpoint
           writes appear inside the submission's merged trace *)
        Trace.with_span "server.checkpoint"
          ~attrs:[ ("server", string_of_int id) ]
        @@ fun () ->
        match
          Metrics.time h_stage_checkpoint (fun () ->
              Ckpt.save ~key:ckpt_key ~dir (Ckpt.of_server state))
        with
        | Ok () -> (
          Metrics.incr m_ckpt_writes;
          last_ckpt_at := Clock.now Clock.system;
          (* the snapshot now carries [journal_seq], so every journaled
             decision is absorbed: drop the journal prefix *)
          match Option.map Ckpt.journal_truncate !journal with
          | None -> ()
          | Some (Ok ()) -> Metrics.incr m_journal_truncations
          | Some (Error e) -> journal_error e)
        | Error e ->
          (* a failed write degrades durability, not availability *)
          failed m_ckpt_errors "server.checkpoint_error"
            (Checkpoint.string_of_error e))
    in
    (* the journal fsyncs each record: durable before anyone is acked *)
    let append entry =
      match !journal with
      | None -> true
      | Some j -> (
        match
          Metrics.time h_journal_fsync (fun () -> Ckpt.journal_append j entry)
        with
        | Ok () ->
          Metrics.incr m_journal_appends;
          true
        | Error e ->
          journal_error e;
          false)
    in
    let nf = if id = 0 then Array.length follower_addrs else 0 in
    (* leader: persistent connections to followers, redialed on demand *)
    let followers =
      Links.create ~tuning ~retry_refused:true (Array.sub follower_addrs 0 nf)
    in
    (* The leader's requests each follower still owes a reply, oldest
       first — one per reply the node's rounds await on that link, in the
       same order: the frame, the time its reply is due, and whether it
       went out on a link dialed for it. Replies are reassembled per
       link; [broken] holds a link's failure until the node's call
       returns. *)
    let owed = Array.init nf (fun _ -> Queue.create ()) in
    let inboxes = Array.init nf (fun _ -> Inbox.create ()) in
    let broken = Array.make nf None in
    let post ~fresh j payload =
      if Option.is_none broken.(j) then
        Links.post followers j payload
        |> Result.iter_error (fun e -> broken.(j) <- Some e);
      Queue.push (payload, Retry.after tuning.io_timeout, fresh) owed.(j)
    in
    let send j =
      post ~fresh:(Option.is_none broken.(j) && not (Links.cached followers j)) j
    in
    let drop j =
      Links.drop followers j;
      Queue.clear owed.(j);
      Inbox.clear inboxes.(j);
      broken.(j) <- None
    in
    let node =
      Node.create ~tuning cx ~id
        { send; drop; journal = append; snapshot = write_checkpoint }
    in
    (* A failure on a link that was cached before the request went out
       may just mean the peer restarted since we last spoke (a stale
       persistent connection): the requests are re-posted once, in order,
       over a fresh dial. A failure on a link dialed for a request is
       authoritative — the follower really is down — and fails every
       round waiting on it. *)
    let rec heal () =
      match Array.find_mapi (fun j e -> Option.map (fun e -> (j, e)) e) broken with
      | None -> ()
      | Some (j, err) ->
        let requests = List.of_seq (Queue.to_seq owed.(j)) in
        drop j;
        if List.for_all (fun (_, _, fresh) -> not fresh) requests then
          List.iter (fun (payload, _, _) -> post ~fresh:true j payload) requests
        else Node.follower_failed node j err;
        heal ()
    in
    let state = Node.server node in
    (* crash recovery: resume mid-collection from the latest snapshot, then
       replay the journal suffix past its watermark *)
    (match tuning.checkpoint_dir with
    | None -> ()
    | Some dir -> (
      (if Sys.file_exists (Checkpoint.path ~dir ~server_id:id) then
         match
           Metrics.time h_restore (fun () ->
               Ckpt.load ~min_epoch:restore_min_epoch ~key:ckpt_key ~dir
                 ~server_id:id ())
         with
         | Ok snap when Array.length snap.Ckpt.accumulator = cfg.trunc_len ->
           Ckpt.apply snap state;
           Metrics.incr m_restores;
           Trace.event "server.restored"
             ~attrs:
               [ ("server", string_of_int id);
                 ("epoch", string_of_int snap.Ckpt.epoch);
                 ("accepted", string_of_int snap.Ckpt.accepted) ]
         | Ok _ ->
           failed m_restore_rejected "server.snapshot_rejected"
             "accumulator width mismatch"
         | Error e ->
           (* invalid snapshot: clean epoch restart, never a crash loop *)
           failed m_restore_rejected "server.snapshot_rejected"
             (Checkpoint.string_of_error e));
      let jkey =
        Checkpoint.derive_journal_key ~master:cfg.master ~server_id:id
      in
      match Ckpt.journal_open ~key:jkey ~dir ~server_id:id () with
      | Error e ->
        (* unreadable/tampered journal: serve without it (durability
           degraded, availability kept), same policy as a bad snapshot *)
        journal_error e
      | Ok (entries, j) ->
        journal := Some j;
        Node.replay node entries));
    for j = 0 to nf - 1 do
      ignore (Links.connect followers j)
    done;
    (* a client that vanished mid-reply is cleaned up on its next read *)
    let reply fd payload =
      ignore (write_frame ~deadline:(Retry.after tuning.io_timeout) fd payload)
    in
    let conns = ref [] in
    (* a round may answer a connection after it closed *)
    let respond c payload = if List.memq c !conns then reply c.fd payload in
    (* the monitor and controller frames; every other frame is the
       protocol's. The reply (empty when it comes later, or never), and
       whether to [`Keep] the connection *)
    let handle_frame c frame =
      match Bytes.get frame 0 with
      | 'q' ->
        (* live metrics scrape: render this process's registry on demand;
           format byte 'j' = JSON snapshot, anything else = Prometheus *)
        let text =
          if Bytes.length frame >= 2 && Bytes.get frame 1 = 'j' then
            Report.json ()
          else Report.prometheus ()
        in
        (tagged 'm' (Bytes.of_string text), `Keep)
      | 'h' ->
        let age =
          if Float.is_nan !last_ckpt_at then None
          else Some (Clock.now Clock.system -. !last_ckpt_at)
        in
        let peers = List.init nf (fun j -> (j + 1, Links.cached followers j)) in
        ( tagged 'H'
            (Bytes.of_string
               (health_to_json
                  {
                    h_server = id;
                    h_epoch = state.Server.epoch;
                    h_pending = Node.depth node;
                    h_accepted = state.Server.accepted;
                    h_ckpt_age = age;
                    h_peers = peers;
                  })),
          `Keep )
      | 'X' -> raise Exit
      | _ | (exception Invalid_argument _) ->
        (Bytes.empty, Node.handle node (Node.Client (respond c)) frame)
    in
    let close_conn c =
      close_quietly c.fd;
      conns := List.filter (fun c' -> c' != c) !conns
    in
    (* One read of a readable socket, then every complete frame in its
       inbox to [f] while [f] asks for more. *)
    let drain inbox fd ~fail f =
      let rec frames () =
        match Inbox.take inbox with
        | Ok None -> ()
        | Ok (Some frame) -> if f frame then frames ()
        | Error e -> fail e
      in
      match Inbox.fill inbox fd with Ok () -> frames () | Error e -> fail e
    in
    let serve_conn c =
      drain c.inbox c.fd
        ~fail:(fun e ->
          (match e with
          | Frame_oversize n -> respond c (error_frame Too_large (string_of_int n))
          | Bad_frame why -> respond c (error_frame Malformed_frame why)
          | _ -> (* EOF (normal disconnect), reset *) ());
          close_conn c)
        (fun frame ->
          match
            match faults with
            | None -> Faults.Deliver frame
            | Some f -> Faults.decide f frame
          with
          | Faults.Crash -> exit 70
          | Faults.Drop -> true
          | Faults.Disconnect ->
            close_conn c;
            false
          | Faults.Deliver frame ->
            let out, keep = handle_frame c frame in
            if Bytes.length out > 0 then respond c out;
            keep = `Keep || (close_conn c; false))
    in
    let serve_link j fd =
      drain inboxes.(j) fd
        ~fail:(fun e -> broken.(j) <- Some e)
        (fun frame ->
          ignore (Queue.take_opt owed.(j));
          ignore (Node.handle node (Node.Follower j) frame);
          true)
    in
    (* one select loop over the listener, the client connections and the
       leader's follower links; it sleeps until a socket is readable or
       the oldest reply a follower owes is due (a timed-out link heals
       before the next sleep). A peer that stalls mid-frame holds only
       its own connection. *)
    (try
       while true do
         (* a reply owed past its deadline fails its link *)
         let now = Retry.now () and due = ref infinity in
         Array.iteri
           (fun j q ->
             Option.iter
               (fun (_, at, _) ->
                 if at <= now then broken.(j) <- Some (Timeout "gossip reply");
                 due := Float.min !due at)
               (Queue.peek_opt q))
           owed;
         heal ();
         let links = List.init nf Fun.id in
         match
           Unix.select
             ((listen_fd :: List.filter_map (Links.fd followers) links)
             @ List.map (fun c -> c.fd) !conns)
             [] []
             (if !due = infinity then -1. else Float.max 0. (!due -. now))
         with
         | exception Unix.Unix_error (EINTR, _, _) -> ()
         | readable, _, _ ->
           List.iter
             (fun fd ->
               if fd = listen_fd then (
                 match Unix.accept listen_fd with
                 | fd, _ ->
                   (try Unix.setsockopt fd TCP_NODELAY true
                    with Unix.Unix_error _ -> ());
                   conns := { fd; inbox = Inbox.create () } :: !conns
                 | exception Unix.Unix_error _ -> ())
               else
                 match
                   List.find_opt (fun j -> Links.fd followers j = Some fd) links
                 with
                 | Some j -> serve_link j fd
                 | None ->
                   List.iter (fun c -> if c.fd = fd then serve_conn c) !conns)
             readable
       done
     with Exit -> ());
    (* dump this process's spans for cross-process stitching; a crashed
       server leaves no dump (or a torn one), which {!Trace.merge}
       tolerates — that absence is part of the crash narrative *)
    (match (tuning.trace_dir, Trace.installed ()) with
    | Some dir, Some r -> (
      try
        let oc =
          open_out (Filename.concat dir (Trace.origin r ^ ".jsonl"))
        in
        output_string oc (Trace.to_jsonl r);
        close_out oc
      with Sys_error _ -> ())
    | _ -> ());
    (match !journal with Some j -> Ckpt.journal_close j | None -> ());
    List.iter (fun c -> close_quietly c.fd) !conns;
    Links.close followers;
    close_quietly listen_fd

  (* --------------------------- deployment --------------------------- *)

  type deployment = {
    cfg : config;
    context : Node.context;
        (** built once by [launch]; every fork and restart reuses it *)
    tuning : tuning;
    addrs : Unix.sockaddr array;  (** server 0 is the leader *)
    pids : int array;  (** current pid per server (restarts update it) *)
    statuses : Unix.process_status option array;
        (** [Some] once the process has been reaped *)
    faults_for : int -> Faults.t option;
  }

  let localhost port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

  let bind_listener addr =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 32;
    fd

  (* Fork one server process serving on [listen_fd]. The child first
     closes [siblings], the listeners it inherited from servers forked
     alongside it: a copy held open would keep a dead sibling's port
     accepting connections nobody serves, and block its restart. *)
  let fork_server ?(restore_min_epoch = 0) ?(siblings = []) ~tuning
      ~faults_for cx ~id ~listen_fd ~follower_addrs =
    (* don't let the child inherit (and later re-flush) buffered output *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      List.iter Unix.close siblings;
      (try
         serve ~tuning ?faults:(faults_for id) ~restore_min_epoch cx ~id
           ~listen_fd ~follower_addrs
         (* dying forked child: stderr is the only remaining channel *)
         (* prio-lint: allow no-debug-io *)
       with e -> prerr_endline ("prio net server: " ^ Printexc.to_string e));
      exit 0
    | pid -> pid

  (** Fork one OS process per server on loopback sockets. [faults_for]
      installs a (seeded, deterministic) fault injector on chosen
      servers' receive paths — the chaos-testing hook. The
      {!Node.context} is built here, once, before the first fork. *)
  let launch ?(tuning = default_tuning) ?(faults_for = fun _ -> None) cfg :
      deployment =
    ignore_sigpipe ();
    let context = Node.context cfg in
    let listeners =
      Array.init cfg.num_servers (fun _ -> bind_listener (localhost 0))
    in
    let addrs =
      Array.map
        (fun fd ->
          match Unix.getsockname fd with
          | ADDR_INET (_, port) -> localhost port
          | ADDR_UNIX _ -> assert false)
        listeners
    in
    let follower_addrs = Array.sub addrs 1 (cfg.num_servers - 1) in
    let pids =
      Array.mapi
        (fun id listen_fd ->
          let siblings =
            List.filter (fun fd -> fd <> listen_fd) (Array.to_list listeners)
          in
          fork_server ~siblings ~tuning ~faults_for context ~id ~listen_fd
            ~follower_addrs)
        listeners
    in
    Array.iter Unix.close listeners;
    {
      cfg;
      context;
      tuning;
      addrs;
      pids;
      statuses = Array.make cfg.num_servers None;
      faults_for;
    }

  (* --------------------------- supervision -------------------------- *)

  type server_status = Running | Exited of Unix.process_status

  (** Non-blocking health check of every server process ([waitpid
      WNOHANG]); reaps and records the status of any that died. *)
  let poll_servers d : server_status array =
    Array.mapi
      (fun i pid ->
        match d.statuses.(i) with
        | Some st -> Exited st
        | None -> (
          match Unix.waitpid [ WNOHANG ] pid with
          | 0, _ -> Running
          | _, st ->
            d.statuses.(i) <- Some st;
            Trace.event "supervisor.exited"
              ~attrs:[ ("server", string_of_int i) ];
            Exited st
          | exception Unix.Unix_error (ECHILD, _, _) ->
            (* someone else reaped it; treat as gone *)
            let st = Unix.WEXITED 0 in
            d.statuses.(i) <- Some st;
            Exited st))
      d.pids

  (** Revive a dead server on its original port. With
      [tuning.checkpoint_dir] set, the new process resumes from the dead
      one's latest valid snapshot — mid-collection recovery: accepted
      submissions up to the last checkpoint survive the crash. Without a
      checkpoint dir (or when the snapshot is rejected) it starts with
      fresh per-batch state: shares that lived only in the dead process
      are lost, but new traffic flows again. [min_epoch] (default 0)
      refuses authentic-but-stale snapshots from already-closed epochs.
      The new process forks with the deployment's {!Node.context}, the
      one [launch] built, so it serves without re-deriving it. *)
  let restart_server ?(min_epoch = 0) d i =
    (match (poll_servers d).(i) with
    | Running -> invalid_arg "Net.restart_server: server still running"
    | Exited _ -> ());
    let listen_fd = bind_listener d.addrs.(i) in
    let follower_addrs = Array.sub d.addrs 1 (d.cfg.num_servers - 1) in
    let pid =
      fork_server ~restore_min_epoch:min_epoch ~tuning:d.tuning
        ~faults_for:d.faults_for d.context ~id:i ~listen_fd ~follower_addrs
    in
    Unix.close listen_fd;
    d.pids.(i) <- pid;
    d.statuses.(i) <- None;
    Trace.event "supervisor.restarted" ~attrs:[ ("server", string_of_int i) ]

  (** What a health sweep concluded about one server — strictly more
      signal than {!server_status}: a process can be alive yet wedged
      (answers nothing) or serving yet degraded (a gossip link down). *)
  type probe =
    | Probe_ok of health
    | Probe_degraded of health * string  (** serving, but impaired *)
    | Probe_unreachable of protocol_error
        (** process alive, probe failed — wedged or unresponsive *)
    | Probe_dead of Unix.process_status  (** process reaped *)

  (** One supervision sweep: liveness first ({!poll_servers}), then an
      [h] probe of every live server. Exports the verdict as gauges
      ([prio_supervisor_down] / [prio_supervisor_degraded]) in the
      calling process. *)
  let probe_deployment d : probe array =
    let probes =
      Array.mapi
        (fun i st ->
          match st with
          | Exited pst -> Probe_dead pst
          | Running -> (
            match probe_health ~tuning:d.tuning d.addrs.(i) with
            | Error e -> Probe_unreachable e
            | Ok h -> (
              match List.filter (fun (_, up) -> not up) h.h_peers with
              | [] -> Probe_ok h
              | down ->
                Probe_degraded
                  ( h,
                    "gossip link down to server "
                    ^ String.concat ", "
                        (List.map (fun (j, _) -> string_of_int j) down) ))))
        (poll_servers d)
    in
    let count p =
      Array.fold_left (fun n x -> if p x then n + 1 else n) 0 probes
    in
    Metrics.set g_sup_down
      (float_of_int
         (count (function
           | Probe_dead _ | Probe_unreachable _ -> true
           | _ -> false)));
    Metrics.set g_sup_degraded
      (float_of_int
         (count (function Probe_degraded _ -> true | _ -> false)));
    probes

  (* SIGKILL server [i] and reap it, recording its exit status. *)
  let kill_and_reap d i =
    (try Unix.kill d.pids.(i) Sys.sigkill with Unix.Unix_error _ -> ());
    match Unix.waitpid [] d.pids.(i) with
    | _, st -> d.statuses.(i) <- Some st
    | exception Unix.Unix_error (ECHILD, _, _) ->
      d.statuses.(i) <- Some (Unix.WEXITED 0)

  (** Probe-driven supervision: restart every server the sweep found
      dead, and kill-then-restart every live server that would not
      answer its probe — the wedged state liveness polling cannot see.
      Returns the ids restarted (in order). Degraded-but-serving servers
      are left alone: the leader redials dropped gossip links on demand.
      Probes share the deployment's [io_timeout], so keep it comfortably
      above the longest single-frame stall a healthy server can have. *)
  let supervise ?min_epoch d : int list =
    let restarted = ref [] in
    Array.iteri
      (fun i p ->
        let restart () =
          restart_server ?min_epoch d i;
          Metrics.incr m_probe_restarts;
          restarted := i :: !restarted
        in
        match p with
        | Probe_ok _ | Probe_degraded _ -> ()
        | Probe_dead _ -> restart ()
        | Probe_unreachable e ->
          Trace.event "supervisor.unreachable"
            ~attrs:
              [ ("server", string_of_int i);
                ("error", string_of_protocol_error e) ];
          kill_and_reap d i;
          restart ())
      (probe_deployment d);
    List.rev !restarted

  (* ----------------------------- clients ---------------------------- *)

  (** What happened to a submission, beyond a bare boolean. *)
  type outcome =
    | Accepted
    | Rejected of string  (** the cluster answered definitively *)
    | Unreachable of protocol_error  (** retries exhausted *)

  let classify_ack reply =
    if Bytes.length reply = 0 then `Retry (Bad_frame "empty reply")
    else
      match Bytes.get reply 0 with
      | 'K' -> `Done `Ack
      | 'R' -> `Done (`Nack "cluster rejected submission")
      | 'E' -> (
        match parse_error_frame reply with
        | None -> `Retry (Bad_frame "garbled error frame")
        | Some ((Too_large | Malformed_frame | Unknown_tag) as c, detail) ->
          (* our frame was damaged in flight; resending is idempotent *)
          `Retry (Peer_error (c, detail))
        | Some (Busy, detail) ->
          (* shed by admission control: back off and resend — the server
             stays healthy, it just wants the burst spread out *)
          `Retry (Peer_error (Busy, detail))
        | Some (Commit_pending, detail) ->
          (* a follower has not acked the leader's journaled verdict, or
             the leader lost the share in a restart: resubmit the whole
             packet set so lost shares are re-seeded and the leader heals *)
          `Done (`Resubmit detail)
        | Some ((Unknown_client | Unavailable | Rejected) as c, detail) ->
          `Done (`Nack (string_of_error_code c ^ ": " ^ detail)))
      | _ -> `Retry (Bad_frame "unparseable reply")

  (** A client's persistent connections to every server, the one client
      RPC path: every submission runs over a session. A streaming client
      at 100k+ submissions would otherwise pay the handshake on every
      hot-path RPC and strand every closed connection in TIME_WAIT until
      loopback's ephemeral ports run out. A session dials each server
      once and reuses the connection for the whole stream; any transport
      error drops the cached connection so the backoff retry dials fresh
      (that heals restarted servers, whose old connections are dead).
      Not domain-safe: one session per submitting thread. *)
  type session = { sdep : deployment; links : Links.t }

  let open_session d =
    ignore_sigpipe ();
    { sdep = d;
      links = Links.create ~tuning:d.tuning ~retry_refused:false d.addrs }

  let close_session s = Links.close s.links

  (* Read the reply to a {!Links.post}. A transport failure drops the
     link, so a late reply can never be read as the answer to a later
     request; so does a garbled reply or a refusal of a damaged frame,
     after which the server closes its end. Only a [Busy] shed keeps it:
     the server is healthy, it just wants the burst spread out. *)
  let gather ?faults (s : session) i = function
    | Error e -> `Retry e
    | Ok (fd, deadline) -> (
      match Links.read ?faults s.links i ~deadline fd with
      | Error e -> `Retry e
      | Ok reply -> (
        match classify_ack reply with
        | `Retry (Peer_error (Busy, _)) as r -> r
        | `Retry _ as r ->
          Links.drop s.links i;
          r
        | r -> r))

  (* One request/reply exchange with server [i] on the backoff schedule.
     [first], when given, is the outcome of an attempt already made (an
     upload round's), so the schedule resumes after it. *)
  let session_rpc ?faults ?first (s : session) ~rng i payload =
    Trace.with_span "net.rpc" @@ fun () ->
    Retry.with_backoff ~rng s.sdep.tuning.backoff (fun ~attempt ->
        match first with
        | Some r when attempt = 0 -> r
        | _ -> gather ?faults s i (Links.post ?faults s.links i payload))

  (* One upload round, scatter-gather like the leader's gossip rounds:
     post the [P] frame to every server, the leader first (its explicit
     share is the largest admit), then read every reply — followers
     1..s-1, then the leader; all of them, even after a failure, so no
     link is left holding an unread reply — and only then walk the
     verdicts in that order. The servers authenticate, decrypt and
     expand their shares at the same time instead of one after another.
     A server whose upload failed in transit, was shed or came back
     garbled retries alone on the backoff schedule; the first refusal or
     exhausted schedule ends the round ([None]: every server acked). A
     server later in the walk may already hold its share as pending by
     then; [max_pending] bounds that. *)
  let upload_round ?faults (s : session) ~rng ~client_id
      (pk : Client.packets) =
    Trace.with_span "net.upload" @@ fun () ->
    (* ctx computed inside the span: every server's admit span becomes a
       child of this round in the merged cross-process trace *)
    let head = Bytes.cat (put_u32 client_id) (ctx_bytes ()) in
    let post_upload i =
      let frame = tagged 'P' (Bytes.cat head pk.Client.sealed.(i)) in
      (i, frame, Retry.now (), Links.post ?faults s.links i frame)
    in
    let leader = post_upload 0 in
    let followers =
      List.init (Array.length pk.Client.sealed - 1) (fun j ->
          post_upload (j + 1))
    in
    (* each upload's post-to-reply time, once its outcome is final *)
    let timed t0 r =
      Metrics.observe h_rpc (Retry.now () -. t0);
      r
    in
    let replies =
      List.map
        (fun (i, frame, t0, p) ->
          match gather ?faults s i p with
          | `Done v -> (i, frame, t0, `Done (timed t0 v))
          | `Retry _ as r -> (i, frame, t0, r))
        (followers @ [ leader ])
    in
    let rec walk = function
      | [] -> None
      | (i, frame, t0, r) :: rest -> (
        let r =
          match r with
          | `Done v -> Ok v
          | `Retry _ as first ->
            timed t0 (session_rpc ?faults ~first s ~rng i frame)
        in
        match r with
        | Ok `Ack -> walk rest
        | Ok (`Nack why) -> Some (Rejected why)
        (* a [Commit_pending] to an upload cannot happen (only verify
           produces it); treat it as a rejection rather than looping *)
        | Ok (`Resubmit why) -> Some (Rejected ("commit pending: " ^ why))
        | Error e -> Some (Unreachable e))
    in
    walk replies

  (* One submission: an upload round, then — only once every server
     acked its share — the leader's verify trigger. A [Commit_pending]
     verify reply means the leader journaled the verdict but a follower
     never acked it: re-run the upload round (re-seeding the shares a
     restarted follower lost) and retry the verify so the leader can
     repair the broadcast — up to [max_resubmits] rounds. *)
  let submit_packets_session ?faults (s : session) ~rng ~client_id
      (pk : Client.packets) : outcome =
    if Array.length pk.Client.sealed <> s.sdep.cfg.num_servers then
      invalid_arg "Net.submit_packets_session: one packet per server required";
    Trace.with_span "net.submit" ~attrs:[ ("client", string_of_int client_id) ]
    @@ fun () ->
    let verify () =
      Trace.with_span "net.verify" @@ fun () ->
      let payload = tagged 'V' (Bytes.cat (put_u32 client_id) (ctx_bytes ())) in
      Metrics.time h_rpc (fun () -> session_rpc ?faults s ~rng 0 payload)
    in
    let rec submit_round round =
      match upload_round ?faults s ~rng ~client_id pk with
      | Some early -> early
      | None -> (
        match verify () with
        | Ok `Ack -> Accepted
        | Ok (`Nack why) -> Rejected why
        | Ok (`Resubmit why) ->
          if round < max_resubmits then begin
            Trace.event "net.resubmit"
              ~attrs:[ ("round", string_of_int round); ("why", why) ];
            (* brief linear pause: commit repair usually waits on a
               follower restart, not on the client hammering faster *)
            Retry.sleep (0.02 *. float_of_int round);
            submit_round (round + 1)
          end
          else Rejected ("commit pending: " ^ why)
        | Error e -> Unreachable e)
    in
    let outcome = submit_round 1 in
    (match outcome with
    | Accepted -> ()
    | Rejected why -> Trace.event "net.rejected" ~attrs:[ ("why", why) ]
    | Unreachable e ->
      Trace.event "net.unreachable"
        ~attrs:[ ("error", string_of_protocol_error e) ]);
    outcome

  (** Drive a whole prepared batch against the deployment, [domains]
      submissions in flight at once (each on a {!Parallel.map} domain
      with a deterministically split RNG), each over a throwaway session.
      Verification of distinct clients is independent and the servers'
      per-client decisions don't depend on arrival order, so the outcome
      array — returned in packet order — is the same as submitting
      serially. This is the runtime's multicore story: each server is
      one single-threaded event loop. *)
  let submit_batch ?faults ?(domains = 1) d ~rng
      (packets : (int * Client.packets) array) : outcome array =
    ignore_sigpipe ();
    Trace.with_span "net.submit_batch"
      ~attrs:
        [ ("submissions", string_of_int (Array.length packets));
          ("domains", string_of_int domains) ]
    @@ fun () ->
    (* split before dispatch: RNG derivation stays in packet order no
       matter which domain takes which submission *)
    let rngs = Array.map (fun _ -> Rng.split rng) packets in
    let submit i =
      let client_id, pk = packets.(i) in
      let s = open_session d in
      Fun.protect
        ~finally:(fun () -> close_session s)
        (fun () -> submit_packets_session ?faults s ~rng:rngs.(i) ~client_id pk)
    in
    Parallel.map ~domains:(max 1 domains) submit
      (Array.init (Array.length packets) Fun.id)

  (** Fetch and sum all accumulators. [Error (i, e)] names the first
      unreachable or garbled server and the structured cause. *)
  let collect_aggregate d : (F.t array, int * protocol_error) result =
    Trace.with_span "net.collect" @@ fun () ->
    let acc = Array.make d.cfg.trunc_len F.zero in
    (* unlike a probe, collection waits out a refused port until the dial
       deadline *)
    Links.scoped ~tuning:d.tuning ~retry_refused:true d.addrs @@ fun l ->
    let fetch i =
      match Links.request l i ~expect:'A' (tagged 'Q' Bytes.empty) with
      | Error e -> Error e
      | Ok reply -> (
        match W.vector_of_bytes_opt (Bytes.sub reply 1 (Bytes.length reply - 1)) with
        | Some v when Array.length v = d.cfg.trunc_len ->
          Array.iteri (fun j x -> acc.(j) <- F.add acc.(j) x) v;
          Ok ()
        | Some _ | None -> Error (Bad_frame "bad accumulator payload"))
    in
    let rec go i =
      if i >= Array.length d.addrs then Ok acc
      else
        match fetch i with
        | Ok () -> go (i + 1)
        | Error e -> Error (i, e)
    in
    go 0

  (** Stop all server processes and reap them: polite [X] frames first,
      then a grace period, then SIGKILL for anything still alive — so
      shutdown terminates even when a server is wedged or long dead. *)
  let shutdown d =
    let tuning =
      { d.tuning with dial_timeout = Float.min 0.5 d.tuning.dial_timeout }
    in
    (Links.scoped ~tuning ~retry_refused:false d.addrs @@ fun l ->
     Array.iteri
       (fun i st ->
         if st = None then ignore (Links.post l i (tagged 'X' Bytes.empty)))
       d.statuses);
    let grace = Retry.after 5.0 in
    let rec reap () =
      ignore (poll_servers d);
      if Array.exists (fun s -> s = None) d.statuses then
        if Retry.expired grace then
          Array.iteri (fun i s -> if s = None then kill_and_reap d i) d.statuses
        else begin
          Retry.sleep 0.01;
          reap ()
        end
    in
    reap ()
end

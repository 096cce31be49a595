(** A fault-tolerant TCP deployment of Prio.

    Everything else in [prio_proto] runs the s servers inside one process
    (with exact byte accounting); this module runs them as separate
    processes speaking length-prefixed frames over real sockets, so the
    system can be deployed the way the paper's Go implementation was: one
    listener per server, clients uploading one sealed packet per server,
    and the leader driving the two SNIP gossip rounds over persistent
    server-to-server connections.

    Protocol (all frames are 4-byte big-endian length + tag byte + body;
    [ctx] is the length-prefixed trace-context suffix of {!ctx_bytes} —
    2 zero bytes when no span is open, so the causal frames below always
    carry it):
    - client → any server:   [P] client_id ‖ ctx ‖ sealed     (ack [K]/[R]/[E])
    - client → leader:       [V] client_id ‖ ctx              — verify now
    - leader → follower:     [o] client_id ‖ ctx              → [O] d‖e
    - leader → follower:     [d] client_id ‖ ctx ‖ d ‖ e      → [S] σ‖ζ
    - leader → follower:     [a]/[r] client_id ‖ ctx          → [c] commit ack
    - collector → server:    [Q]                              → [A] accumulator
    - monitor → server:      [q] format byte ('p'/'j')        → [m] metrics text
    - monitor → server:      [h]                              → [H] health probe
    - controller → server:   [X]                              — shutdown
    - any server → peer:     [E] code ‖ detail                — refusal, with
      a one-byte machine-readable code ({!error_code}) and human detail

    Fault tolerance (the paper's §2/§5 threat model — faulty or malicious
    clients *and* servers — applied to the wire):
    - every read/write carries a deadline ({!Retry.deadline}), so a dead
      peer never wedges the serve loop; the loop itself blocks in
      [select] only while no connection is readable;
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

(* --------------------------- protocol errors --------------------------- *)

(** Machine-readable refusal codes carried by [E] frames. *)
type error_code =
  | Too_large  (** frame length exceeds the receiver's cap *)
  | Malformed_frame  (** empty frame, short body, or unparseable payload *)
  | Unknown_tag
  | Unknown_client  (** no pending share / recorded verdict for this id *)
  | Unavailable  (** server degraded (e.g. a follower is down) *)
  | Rejected  (** submission definitively refused *)
  | Busy  (** admission queue full; retry with backoff *)
  | Commit_pending
      (** the verdict is journaled at the leader but a follower has not
          acknowledged its copy, or the leader lost the share in a
          restart before deciding; resubmitting the packets re-seeds the
          lost share and lets the leader repair the commit *)

(** Everything that can go wrong on the wire, as a value — the structured
    replacement for the seed implementation's [assert]s and [Not_found]s. *)
type protocol_error =
  | Timeout of string  (** deadline expired *)
  | Closed of string  (** EOF / EPIPE / ECONNRESET / refused dial *)
  | Frame_oversize of int  (** peer announced a frame above the cap *)
  | Bad_frame of string  (** framing or payload violation *)
  | Peer_error of error_code * string  (** peer answered with an [E] frame *)
  | Io_error of string  (** any other socket-level error *)

let string_of_error_code = function
  | Too_large -> "too-large"
  | Malformed_frame -> "malformed"
  | Unknown_tag -> "unknown-tag"
  | Unknown_client -> "unknown-client"
  | Unavailable -> "unavailable"
  | Rejected -> "rejected"
  | Busy -> "busy"
  | Commit_pending -> "commit-pending"

let string_of_protocol_error = function
  | Timeout what -> "timeout: " ^ what
  | Closed what -> "closed: " ^ what
  | Frame_oversize n -> Printf.sprintf "oversize frame (%d bytes)" n
  | Bad_frame what -> "bad frame: " ^ what
  | Peer_error (c, detail) ->
    Printf.sprintf "peer error [%s] %s" (string_of_error_code c) detail
  | Io_error what -> "io: " ^ what

(** A peer closing mid-write must surface as [EPIPE] (a handleable
    {!protocol_error}), not kill the process. Idempotent; called at every
    entry point that touches a socket. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* ------------------------------- tuning -------------------------------- *)

(* Frames announcing more than this are refused before allocation. *)
let max_frame_bytes = 16 * 1024 * 1024

(* Client-side resubmission rounds after a [Commit_pending] verify reply
   (the leader decided, a follower has not acknowledged its copy) before
   the submission gives up as rejected. *)
let max_resubmits = 4

type tuning = {
  io_timeout : float;  (** per-frame read/write deadline, seconds *)
  dial_timeout : float;  (** per-connection-establishment deadline *)
  backoff : Retry.backoff;  (** client-side RPC retry schedule *)
  max_pending : int;
      (** admission cap: uploads beyond this many in-flight submissions
          per server are shed with a retryable [Busy] error frame *)
  epoch_size : int;
      (** decisions per replay/idempotency epoch; 0 = never rotate
          (memory then grows with the stream, the pre-streaming mode) *)
  checkpoint_dir : string option;
      (** where servers persist snapshots after decisions; [None]
          disables durability (crash loses the server's state) *)
  checkpoint_every : int;
      (** decisions between snapshots (default 16). The decision journal
          already makes every acknowledged decision survive a crash, so
          the cadence only bounds how many journal records a restart
          replays; a rotation always snapshots as well *)
  trace_dir : string option;
      (** with it set, each server process installs its own span recorder
          (origin ["server<id>"]) and dumps [<trace_dir>/server<id>.jsonl]
          on clean shutdown, ready for {!Prio_obs.Trace.merge} *)
}

let default_tuning =
  {
    io_timeout = 5.0;
    dial_timeout = 2.0;
    backoff = Retry.default_backoff;
    max_pending = 1024;
    epoch_size = 0;
    checkpoint_dir = None;
    checkpoint_every = 16;
    trace_dir = None;
  }

(* ---------------------------- observability ---------------------------- *)

module Metrics = Prio_obs.Metrics
module Trace = Prio_obs.Trace
module Clock = Prio_obs.Clock
module Report = Prio_obs.Report

(* Unified on-wire accounting: every frame that crosses a socket in this
   process — uploads, gossip, collection — lands in these channels, the
   TCP analogue of {!Cluster}'s links matrix. *)
let m_tx_bytes = Metrics.counter "prio_net_tx_bytes_total"
let m_tx_frames = Metrics.counter "prio_net_tx_frames_total"
let m_rx_bytes = Metrics.counter "prio_net_rx_bytes_total"
let m_rx_frames = Metrics.counter "prio_net_rx_frames_total"
let m_timeouts = Metrics.counter "prio_net_timeouts_total"
let h_frame_bytes = Metrics.histogram "prio_net_frame_bytes"
let h_rpc = Metrics.histogram "prio_net_rpc_seconds"

(* Admission control and durability channels (docs/OBSERVABILITY.md). *)
let m_shed = Metrics.counter "prio_net_shed_total"
let g_pending = Metrics.gauge "prio_net_pending_depth"
let m_ckpt_writes = Metrics.counter "prio_ckpt_writes_total"
let m_ckpt_errors = Metrics.counter "prio_ckpt_errors_total"
let m_restores = Metrics.counter "prio_ckpt_restores_total"
let m_restore_rejected = Metrics.counter "prio_ckpt_rejected_total"
let h_ckpt_write = Metrics.histogram "prio_ckpt_write_seconds"
let h_restore = Metrics.histogram "prio_ckpt_restore_seconds"

(* Decision-journal and two-phase-commit channels: the write-ahead log
   each server appends to before acknowledging a decision, and the
   leader's view of the acked broadcast (docs/OBSERVABILITY.md). *)
let m_journal_appends = Metrics.counter "prio_journal_appends_total"
let m_journal_replayed = Metrics.counter "prio_journal_replayed_total"
let m_journal_truncations = Metrics.counter "prio_journal_truncations_total"
let m_journal_errors = Metrics.counter "prio_journal_errors_total"
let h_journal_fsync = Metrics.histogram "prio_journal_fsync_seconds"
let m_commit_acks = Metrics.counter "prio_commit_acks_total"
let m_commit_failures = Metrics.counter "prio_commit_failures_total"
let m_commit_repairs = Metrics.counter "prio_commit_repairs_total"

(* Per-stage latency histograms: every submission crosses admission →
   verify → aggregate → checkpoint inside a server process; each stage
   records its wall time here, and the live scrape ([q] frames) pulls the
   percentile view out of the running process. *)
let h_stage_admit = Metrics.histogram "prio_stage_admit_seconds"
let h_stage_verify = Metrics.histogram "prio_stage_verify_seconds"
let h_stage_aggregate = Metrics.histogram "prio_stage_aggregate_seconds"
let h_stage_checkpoint = Metrics.histogram "prio_stage_checkpoint_seconds"

(* Supervisor view (recorded in the probing process, not the servers):
   how many servers the last probe sweep found broken, and how many
   probe-driven restarts were issued over this process's lifetime. *)
let g_sup_down = Metrics.gauge "prio_supervisor_down"
let g_sup_degraded = Metrics.gauge "prio_supervisor_degraded"
let m_probe_restarts = Metrics.counter "prio_supervisor_probe_restarts_total"

(* ------------------------------- framing ------------------------------- *)

let put_u32 v =
  Bytes.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let get_u32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let tagged tag body = Bytes.cat (Bytes.make 1 tag) body

let put_u16 v =
  Bytes.init 2 (fun i -> Char.chr ((v lsr (8 * (1 - i))) land 0xff))

let get_u16 b off =
  (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

(* IEEE-754 double, big-endian — the checkpoint-age field of [H] frames *)
let put_f64 v =
  let bits = Int64.bits_of_float v in
  Bytes.init 8 (fun i ->
      Char.chr
        (Int64.to_int (Int64.shift_right_logical bits (8 * (7 - i)))
        land 0xff))

let get_f64 b off =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor
        (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code (Bytes.get b (off + i))))
  done;
  Int64.float_of_bits !bits

(* ---------------------------- trace context ---------------------------- *)

(** Length-prefixed trace-context suffix for causal frames: [u16 len ‖
    context], where the context is the calling domain's current
    {!Trace.context} ([len = 0] when no recorder/span is live, so
    uninstrumented peers interoperate unchanged). Receivers parse it with
    {!get_ctx} and open their handling span with [Trace.with_span_ctx],
    which is how a client's submission span becomes the ancestor of the
    leader's — and, via the gossip frames, every follower's — spans in
    the merged cross-process trace. *)
let ctx_bytes () =
  match Trace.context () with
  | None -> Bytes.make 2 '\000'
  | Some c ->
    let s = Trace.context_to_string c in
    let n = String.length s in
    if n > 0xffff then Bytes.make 2 '\000'
    else Bytes.cat (put_u16 n) (Bytes.of_string s)

(** [get_ctx frame off] parses a {!ctx_bytes} suffix at [off]; returns
    the context (if present and well-formed) and the offset just past the
    suffix. Total: a truncated or garbled suffix degrades to [None] — a
    missing trace must never refuse a frame. *)
let get_ctx frame off =
  if Bytes.length frame < off + 2 then (None, Bytes.length frame)
  else begin
    let n = get_u16 frame off in
    let off = off + 2 in
    if n = 0 || Bytes.length frame < off + n then (None, off)
    else (Trace.context_of_string (Bytes.sub_string frame off n), off + n)
  end

(* wait until [fd] is ready for reading/writing, bounded by [deadline];
   false on expiry *)
let rec wait_io ~read fd deadline =
  let left = Retry.remaining deadline in
  if left <= 0. then false
  else
    let t = if left = infinity then -1. else left in
    match
      Unix.select (if read then [ fd ] else []) (if read then [] else [ fd ]) [] t
    with
    | [], [], _ -> false
    | _ -> true
    | exception Unix.Unix_error (EINTR, _, _) -> wait_io ~read fd deadline

let write_frame ?(deadline = Retry.no_deadline) fd (payload : Bytes.t) :
    (unit, protocol_error) result =
  let n = Bytes.length payload in
  (* header + payload assembled once into a single buffer, one write path
     (no extra [Bytes.cat] of a separate header) *)
  let buf = Bytes.create (4 + n) in
  Bytes.set buf 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (n land 0xff));
  Bytes.blit payload 0 buf 4 n;
  let rec send off len =
    if len = 0 then Ok ()
    else if not (wait_io ~read:false fd deadline) then
      Error (Timeout "write_frame")
    else
      match Unix.write fd buf off len with
      | w -> send (off + w) (len - w)
      | exception Unix.Unix_error (EINTR, _, _) -> send off len
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        Error (Closed "write_frame: peer closed")
      | exception Unix.Unix_error (e, _, _) ->
        Error (Io_error ("write_frame: " ^ Unix.error_message e))
  in
  match send 0 (4 + n) with
  | Ok () ->
    Metrics.add m_tx_bytes (4 + n);
    Metrics.incr m_tx_frames;
    Metrics.observe_int h_frame_bytes n;
    Ok ()
  | Error (Timeout _) as e ->
    Metrics.incr m_timeouts;
    e
  | Error _ as e -> e

let read_exactly fd n deadline : (Bytes.t, protocol_error) result =
  let buf = Bytes.create n in
  let rec go got =
    if got = n then Ok buf
    else if not (wait_io ~read:true fd deadline) then
      Error (Timeout "read_frame")
    else
      match Unix.read fd buf got (n - got) with
      | 0 -> Error (Closed "read_frame: eof")
      | r -> go (got + r)
      | exception Unix.Unix_error (EINTR, _, _) -> go got
      | exception Unix.Unix_error (ECONNRESET, _, _) ->
        Error (Closed "read_frame: reset")
      | exception Unix.Unix_error (e, _, _) ->
        Error (Io_error ("read_frame: " ^ Unix.error_message e))
  in
  go 0

let read_frame ?(deadline = Retry.no_deadline)
    ?(max_bytes = max_frame_bytes) fd :
    (Bytes.t, protocol_error) result =
  match read_exactly fd 4 deadline with
  | Error (Timeout _) as e ->
    Metrics.incr m_timeouts;
    e
  | Error _ as e -> e
  | Ok hdr -> (
    let n = get_u32 hdr 0 in
    if n > max_bytes then
      (* refuse before allocating attacker-controlled memory *)
      Error (Frame_oversize n)
    else if n = 0 then Error (Bad_frame "empty (tag-less) frame")
    else
      match read_exactly fd n deadline with
      | Ok frame ->
        Metrics.add m_rx_bytes (4 + n);
        Metrics.incr m_rx_frames;
        Metrics.observe_int h_frame_bytes n;
        Ok frame
      | Error (Timeout _) as e ->
        Metrics.incr m_timeouts;
        e
      | Error _ as e -> e)

(* ----------------------------- error frame ----------------------------- *)

let error_code_byte = function
  | Too_large -> 'L'
  | Malformed_frame -> 'M'
  | Unknown_tag -> 'T'
  | Unknown_client -> 'C'
  | Unavailable -> 'U'
  | Rejected -> 'J'
  | Busy -> 'B'
  | Commit_pending -> 'W'

let error_code_of_byte = function
  | 'L' -> Some Too_large
  | 'M' -> Some Malformed_frame
  | 'T' -> Some Unknown_tag
  | 'C' -> Some Unknown_client
  | 'U' -> Some Unavailable
  | 'J' -> Some Rejected
  | 'B' -> Some Busy
  | 'W' -> Some Commit_pending
  | _ -> None

let error_frame code detail =
  let d = Bytes.of_string detail in
  let b = Bytes.create (2 + Bytes.length d) in
  Bytes.set b 0 'E';
  Bytes.set b 1 (error_code_byte code);
  Bytes.blit d 0 b 2 (Bytes.length d);
  b

(** Decode an [E] frame (first byte already known to be ['E']). *)
let parse_error_frame frame =
  if Bytes.length frame < 2 then None
  else
    match error_code_of_byte (Bytes.get frame 1) with
    | None -> None
    | Some c -> Some (c, Bytes.sub_string frame 2 (Bytes.length frame - 2))

(* -------------------------- fault-aware I/O ---------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* An injected disconnect severs the connection — the peer reads EOF —
   but leaves the descriptor open for its owner to close exactly once:
   closing it here as well would let a dial in between reuse the number,
   and the owner's own close would then kill that live link. *)
let disconnect fd =
  (try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Error (Closed "fault injection: disconnect")

(** Frame write through an optional fault injector. [Drop] pretends the
    frame went out; [Crash] terminates the calling process (that is what
    the policy means — use it only for server chaos). *)
let send_frame ?faults ?deadline fd payload =
  match faults with
  | None -> write_frame ?deadline fd payload
  | Some f -> (
    match Faults.decide f payload with
    | Faults.Deliver p -> write_frame ?deadline fd p
    | Faults.Drop -> Ok ()
    | Faults.Disconnect -> disconnect fd
    | Faults.Crash -> exit 70)

(** Frame read through an optional fault injector; a dropped reply
    surfaces as the [Timeout] the caller would have seen for real. *)
let recv_frame ?faults ?deadline ?max_bytes fd =
  match read_frame ?deadline ?max_bytes fd with
  | Error _ as e -> e
  | Ok frame -> (
    match faults with
    | None -> Ok frame
    | Some f -> (
      match Faults.decide f frame with
      | Faults.Deliver p when Bytes.length p = 0 ->
        Error (Bad_frame "fault injection: truncated to empty")
      | Faults.Deliver p -> Ok p
      | Faults.Drop -> Error (Timeout "fault injection: reply dropped")
      | Faults.Disconnect -> disconnect fd
      | Faults.Crash -> exit 70))

(* -------------------------------- dial --------------------------------- *)

(** Connect to [addr] under a deadline, with a fresh socket per attempt
    (a socket that failed [connect] must not be reused). With
    [retry_refused] (default), ECONNREFUSED / ETIMEDOUT / EHOSTUNREACH /
    ENETUNREACH are retried until the deadline — the launch-time case
    where a server has bound but not yet forked far enough to accept;
    without it they fail immediately so a caller with its own backoff
    loop (the client RPC path) is not stuck spinning on a dead port. *)
let dial ?(deadline = Retry.after 2.0) ?(retry_refused = true) addr :
    (Unix.file_descr, protocol_error) result =
  let rec attempt () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    let ok () =
      Unix.clear_nonblock fd;
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      Ok fd
    in
    let unreachable e =
      close_quietly fd;
      if not retry_refused then
        Error (Closed ("dial: " ^ Unix.error_message e))
      else if Retry.expired deadline then
        Error (Timeout ("dial: " ^ Unix.error_message e ^ " until deadline"))
      else begin
        Retry.sleep 0.02;
        attempt ()
      end
    in
    Unix.set_nonblock fd;
    match Unix.connect fd addr with
    | () -> ok ()
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _)
      -> (
      if not (wait_io ~read:false fd deadline) then begin
        close_quietly fd;
        Error (Timeout "dial")
      end
      else
        match Unix.getsockopt_error fd with
        | None -> ok ()
        | Some
            ((ECONNREFUSED | ETIMEDOUT | EHOSTUNREACH | ENETUNREACH
             | ECONNRESET) as e) ->
          unreachable e
        | Some e ->
          close_quietly fd;
          Error (Io_error ("dial: " ^ Unix.error_message e)))
    | exception
        Unix.Unix_error
          ( (ECONNREFUSED | ETIMEDOUT | EHOSTUNREACH | ENETUNREACH) as e,
            _,
            _ ) ->
      unreachable e
    | exception Unix.Unix_error (EINTR, _, _) ->
      close_quietly fd;
      if Retry.expired deadline then Error (Timeout "dial") else attempt ()
    | exception Unix.Unix_error (e, _, _) ->
      close_quietly fd;
      Error (Io_error ("dial: " ^ Unix.error_message e))
  in
  attempt ()

(* ------------------------------ peer links ----------------------------- *)

(* Persistent connections to a fixed set of peers: the leader's gossip
   links to its followers, and a client session's links to every server.
   A slot holds at most one connection, dialed on first use. A failed
   write or read drops it — closed and forgotten here, the one place a
   link is closed — so the next use dials fresh and a late reply can
   never be read as the answer to a later request. Retry policy stays
   with the owner: the leader redials once on a stale cached link, a
   client session backs off. *)
module Links = struct
  type t = {
    peers : Unix.sockaddr array;
    fds : Unix.file_descr option array;
    tuning : tuning;
    retry_refused : bool;
        (** the leader's dial waits out a refused port until the
            deadline; a client's fails fast, so its backoff schedule, not
            a dial loop, paces a dead server *)
  }

  let create ~tuning ~retry_refused peers =
    { peers; fds = Array.make (Array.length peers) None; tuning; retry_refused }

  let cached l i = Option.is_some l.fds.(i)

  let drop l i =
    match l.fds.(i) with
    | Some fd ->
      close_quietly fd;
      l.fds.(i) <- None
    | None -> ()

  let close l = Array.iteri (fun i _ -> drop l i) l.fds

  let connect l i =
    match l.fds.(i) with
    | Some fd -> Ok fd
    | None ->
      Result.map
        (fun fd ->
          l.fds.(i) <- Some fd;
          fd)
        (dial ~retry_refused:l.retry_refused
           ~deadline:(Retry.after l.tuning.dial_timeout)
           l.peers.(i))

  (* Write one request to peer [i], dialing when no link is cached.
     [Ok (fd, deadline)]: the request is out and its reply is due by
     [deadline]. *)
  let post ?faults l i payload =
    match connect l i with
    | Error e -> Error e
    | Ok fd -> (
      let deadline = Retry.after l.tuning.io_timeout in
      match send_frame ?faults ~deadline fd payload with
      | Ok () -> Ok (fd, deadline)
      | Error e ->
        drop l i;
        Error e)

  let read ?faults l i ~deadline fd =
    match recv_frame ?faults ~deadline fd with
    | Ok _ as r -> r
    | Error _ as e ->
      drop l i;
      e
end

(* ------------------------- health and scrape --------------------------- *)

(** One server's answer to an [h] probe: enough signal for a supervisor
    to distinguish "serving", "serving but degraded" (a gossip link to a
    peer is down, durability is stale) and "wedged" (process alive but
    the probe itself times out) — liveness alone ([waitpid]) sees only
    the first and last. *)
type health = {
  h_server : int;  (** server id (0 = leader) *)
  h_epoch : int;  (** current replay/idempotency epoch *)
  h_pending : int;  (** admission-queue depth (in-flight submissions) *)
  h_accepted : int;  (** submissions folded into the accumulator *)
  h_ckpt_age : float option;
      (** seconds since this process last wrote a snapshot; [None] when
          durability is off or nothing has been checkpointed yet *)
  h_peers : (int * bool) list;
      (** leader only: per-follower [(server id, link cached)] — [false]
          means the persistent gossip connection is down (dropped after a
          failure, or never established) and will be redialed on demand *)
}

let health_to_bytes h =
  let buf = Buffer.create 64 in
  Buffer.add_bytes buf (put_u32 h.h_server);
  Buffer.add_bytes buf (put_u32 h.h_epoch);
  Buffer.add_bytes buf (put_u32 h.h_pending);
  Buffer.add_bytes buf (put_u32 h.h_accepted);
  (match h.h_ckpt_age with
  | None ->
    Buffer.add_char buf '\000';
    Buffer.add_bytes buf (put_f64 0.)
  | Some age ->
    Buffer.add_char buf '\001';
    Buffer.add_bytes buf (put_f64 age));
  Buffer.add_char buf (Char.chr (List.length h.h_peers land 0xff));
  List.iter
    (fun (j, up) ->
      Buffer.add_bytes buf (put_u32 j);
      Buffer.add_char buf (if up then '\001' else '\000'))
    h.h_peers;
  Buffer.to_bytes buf

let health_of_bytes_opt frame ~off =
  let len = Bytes.length frame in
  if len < off + 26 then None
  else begin
    let npeers = Char.code (Bytes.get frame (off + 25)) in
    if len < off + 26 + (5 * npeers) then None
    else begin
      let peers =
        List.init npeers (fun k ->
            let p = off + 26 + (5 * k) in
            (get_u32 frame p, Bytes.get frame (p + 4) <> '\000'))
      in
      Some
        {
          h_server = get_u32 frame off;
          h_epoch = get_u32 frame (off + 4);
          h_pending = get_u32 frame (off + 8);
          h_accepted = get_u32 frame (off + 12);
          h_ckpt_age =
            (if Bytes.get frame (off + 16) = '\000' then None
             else Some (get_f64 frame (off + 17)));
          h_peers = peers;
        }
    end
  end

(* One request over a fresh connection, no retries: a supervisor,
   collector or controller wants the current truth, not a
   backoff-smoothed one. The reply must carry tag [expect] (an [E] reply
   surfaces as [Peer_error]); without [expect] the request is one-way
   and nothing is read. *)
let rpc ?(retry_refused = false) ?expect ~tuning addr payload =
  ignore_sigpipe ();
  match
    dial ~retry_refused ~deadline:(Retry.after tuning.dial_timeout) addr
  with
  | Error e -> Error e
  | Ok fd -> (
    Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
    let deadline = Retry.after tuning.io_timeout in
    match (write_frame ~deadline fd payload, expect) with
    | Error e, _ -> Error e
    | Ok (), None -> Ok Bytes.empty
    | Ok (), Some expect -> (
      match read_frame ~deadline fd with
      | Error e -> Error e
      | Ok reply when Bytes.get reply 0 = 'E' -> (
        match parse_error_frame reply with
        | Some (c, detail) -> Error (Peer_error (c, detail))
        | None -> Error (Bad_frame "garbled error frame"))
      | Ok reply when Bytes.get reply 0 <> expect ->
        Error
          (Bad_frame
             (Printf.sprintf "expected %C reply, got %C" expect
                (Bytes.get reply 0)))
      | Ok reply -> Ok reply))

(** Ask one server for its {!health} over a fresh connection ([h] → [H]).
    Works against any live server of a deployment; an error is itself the
    signal (dial refused = port dead, timeout = process wedged). *)
let probe_health ?(tuning = default_tuning) addr :
    (health, protocol_error) result =
  match rpc ~tuning ~expect:'H' addr (tagged 'h' Bytes.empty) with
  | Error _ as e -> e
  | Ok reply -> (
    match health_of_bytes_opt reply ~off:1 with
    | Some h -> Ok h
    | None -> Error (Bad_frame "bad health payload"))

(** Pull one server's live metrics registry over TCP ([q] → [m]) as
    Prometheus exposition text or the {!Prio_obs.Report.json} snapshot —
    the scrape endpoint, without embedding an HTTP server. *)
let scrape_metrics ?(tuning = default_tuning) ?(format = `Prometheus) addr :
    (string, protocol_error) result =
  let fmt = match format with `Prometheus -> 'p' | `Json -> 'j' in
  match rpc ~tuning ~expect:'m' addr (tagged 'q' (Bytes.make 1 fmt)) with
  | Error _ as e -> e
  | Ok reply -> Ok (Bytes.sub_string reply 1 (Bytes.length reply - 1))

(* ------------------------------ deployment ----------------------------- *)

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Prio_circuit.Circuit.Make (F)
  module Snip = Prio_snip.Snip.Make (F)
  module Sh = Prio_share.Share.Make (F)
  module W = Wire.Make (F)
  module Server = Server.Make (F)
  module Client = Client.Make (F)
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
    let cfg = cx.Node.cfg in
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
              Metrics.time h_ckpt_write (fun () ->
                  Ckpt.save ~key:ckpt_key ~dir (Ckpt.of_server state)))
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
    (* One follower's leg of a leader round, split so the leader can write
       to every follower before reading from any: the request goes out
       now, the returned thunk reads the reply. A failure on a *cached*
       link may just mean the peer restarted since we last spoke (stale
       persistent connection): the link is dropped, and the exchange is
       redone once over a fresh dial. A failure on a connection we just
       established is authoritative — the follower really is down. The
       reply deadline runs from the read, not the write: the leader works
       on its own share in between. *)
    let leg j payload =
      let cached = Links.cached followers j in
      let redo () = Links.post followers j payload in
      let read (fd, _) =
        Links.read followers j ~deadline:(Retry.after tuning.io_timeout) fd
      in
      match Links.post followers j payload with
      | Ok p -> (
        fun () ->
          match read p with
          | Error _ when cached -> Result.bind (redo ()) read
          | r -> r)
      | Error _ when cached ->
        let p = redo () in
        fun () -> Result.bind p read
      | Error e -> fun () -> Error e
    in
    (* read every reply in follower order — all of them, even after a
       failure, so no link is left holding an unread reply *)
    let scatter ?skip payload =
      let legs =
        Array.init nf (fun j ->
            if skip = Some j then None else Some (leg j payload))
      in
      fun () -> Array.map (Option.map (fun gather -> gather ())) legs
    in
    let node =
      Node.create ~tuning cx ~id
        { scatter;
          drop = Links.drop followers;
          journal = append;
          snapshot = write_checkpoint }
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
    (* the monitor and controller frames; every other frame is the
       protocol's. The reply, and whether to [`Keep] the connection *)
    let handle_frame frame =
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
            (health_to_bytes
               {
                 h_server = id;
                 h_epoch = state.Server.epoch;
                 h_pending = Node.depth node;
                 h_accepted = state.Server.accepted;
                 h_ckpt_age = age;
                 h_peers = peers;
               }),
          `Keep )
      | 'X' -> raise Exit
      | _ | (exception Invalid_argument _) -> Node.handle node frame
    in
    (* select loop over the listener and all live connections; it blocks
       until one is readable — nothing runs on a timer *)
    let conns = ref [] in
    let close_conn fd =
      close_quietly fd;
      conns := List.filter (fun c -> c <> fd) !conns
    in
    (try
       while true do
         match Unix.select (listen_fd :: !conns) [] [] (-1.) with
         | exception Unix.Unix_error (EINTR, _, _) -> ()
         | readable, _, _ ->
           List.iter
             (fun fd ->
               if fd = listen_fd then (
                 match Unix.accept listen_fd with
                 | conn, _ ->
                   (try Unix.setsockopt conn TCP_NODELAY true
                    with Unix.Unix_error _ -> ());
                   conns := conn :: !conns
                 | exception Unix.Unix_error _ -> ())
               else
                 let deadline = Retry.after tuning.io_timeout in
                 match read_frame ~deadline fd with
                 | Error (Frame_oversize n) ->
                   reply fd (error_frame Too_large (string_of_int n));
                   close_conn fd
                 | Error (Bad_frame why) ->
                   reply fd (error_frame Malformed_frame why);
                   close_conn fd
                 | Error _ ->
                   (* EOF (normal disconnect), timeout, reset *)
                   close_conn fd
                 | Ok frame -> (
                   let verdict =
                     match faults with
                     | None -> Faults.Deliver frame
                     | Some f -> Faults.decide f frame
                   in
                   match verdict with
                   | Faults.Crash -> exit 70
                   | Faults.Drop -> ()
                   | Faults.Disconnect -> close_conn fd
                   | Faults.Deliver frame ->
                     let out, keep = handle_frame frame in
                     reply fd out;
                     if keep = `Close then close_conn fd))
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
    List.iter close_quietly !conns;
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
    let fetch addr =
      (* unlike a probe, collection waits out a refused port until the
         dial deadline *)
      match
        rpc ~retry_refused:true ~expect:'A' ~tuning:d.tuning addr
          (tagged 'Q' Bytes.empty)
      with
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
        match fetch d.addrs.(i) with
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
    Array.iteri
      (fun i addr ->
        if d.statuses.(i) = None then
          ignore (rpc ~tuning addr (tagged 'X' Bytes.empty)))
      d.addrs;
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

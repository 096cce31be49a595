(** The wire layer of the TCP deployment ({!Net}): protocol errors, the
    deployment tuning, length-prefixed frames with their trace-context
    suffix and [E] refusals, deadline- and fault-aware frame I/O,
    dialing, persistent peer links, and the health probe and metrics
    scrape.

    Frame grammar (all frames are 4-byte big-endian length + tag byte +
    body; [ctx] is the length-prefixed trace-context suffix of
    {!ctx_bytes} — 2 zero bytes when no span is open, so the causal
    frames below always carry it):
    - client → any server:   [P] client_id ‖ ctx ‖ sealed     (ack [K]/[R]/[E])
    - client → leader:       [V] client_id ‖ ctx              — verify now
    - leader → follower:     [o] client_id ‖ ctx              → [O] d‖e
    - leader → follower:     [d] client_id ‖ ctx ‖ d ‖ e      → [S] σ‖ζ
    - leader → follower:     [a]/[r] client_id ‖ ctx          → [c] commit ack
    - collector → server:    [Q]                              → [A] accumulator
    - monitor → server:      [q] format byte ('p'/'j')        → [m] metrics text
    - monitor → server:      [h]                              → [H] health JSON
    - controller → server:   [X]                              — shutdown
    - any server → peer:     [E] code ‖ detail                — refusal, with
      a one-byte machine-readable code ({!error_code}) and human detail *)

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

(* Unified on-wire accounting: every frame that crosses a socket in this
   process — uploads, gossip, collection — lands in these channels, the
   TCP analogue of {!Cluster}'s links matrix. *)
let m_tx_bytes = Metrics.counter "prio_net_tx_bytes_total"
let m_tx_frames = Metrics.counter "prio_net_tx_frames_total"
let m_rx_bytes = Metrics.counter "prio_net_rx_bytes_total"
let m_rx_frames = Metrics.counter "prio_net_rx_frames_total"
let m_timeouts = Metrics.counter "prio_net_timeouts_total"
let h_frame_bytes = Metrics.histogram "prio_net_frame_bytes"

(* ------------------------------- framing ------------------------------- *)

let put_u32 v =
  let b = Bytes.create 4 in
  Wire.set_u32 b 0 v;
  b

let get_u32 = Wire.get_u32
let tagged tag body = Bytes.cat (Bytes.make 1 tag) body

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
    else begin
      let b = Bytes.create (2 + n) in
      Bytes.set_uint16_be b 0 n;
      Bytes.blit_string s 0 b 2 n;
      b
    end

(** [get_ctx frame off] parses a {!ctx_bytes} suffix at [off]; returns
    the context (if present and well-formed) and the offset just past the
    suffix. Total: a truncated or garbled suffix degrades to [None] — a
    missing trace must never refuse a frame. *)
let get_ctx frame off =
  if Bytes.length frame < off + 2 then (None, Bytes.length frame)
  else begin
    let n = Bytes.get_uint16_be frame off in
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
  Wire.set_u32 buf 0 n;
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

(* ------------------------------- inboxes ------------------------------- *)

(* One connection's bytes so far, reassembled into frames: an event loop
   reads what one [read] of a readable socket returns and takes out each
   complete frame, so a peer that stalls mid-frame holds up only its own
   connection; [read_frame] reads only the frame at hand. The buffer
   grows with what arrives, by at most 64 KiB a read beyond what a
   header announces. *)
module Inbox = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.empty; len = 0 }
  let clear t = t.len <- 0

  let fill ?(exact = false) t fd =
    (* the rest of the frame's header, then of its body *)
    let missing = if t.len < 4 then 4 - t.len else 4 + get_u32 t.buf 0 - t.len in
    let want = if exact then missing else max 4096 (min missing 65536) in
    if Bytes.length t.buf - t.len < want then begin
      let b = Bytes.create (max (t.len + want) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end;
    match Unix.read fd t.buf t.len (if exact then want else Bytes.length t.buf - t.len) with
    | 0 -> Error (Closed "read_frame: eof")
    | n ->
      t.len <- t.len + n;
      Ok ()
    | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) -> Ok ()
    | exception Unix.Unix_error (ECONNRESET, _, _) ->
      Error (Closed "read_frame: reset")
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io_error ("read_frame: " ^ Unix.error_message e))

  let take t =
    if t.len < 4 then Ok None
    else
      let n = get_u32 t.buf 0 in
      if n > max_frame_bytes then Error (Frame_oversize n)
      else if n = 0 then Error (Bad_frame "empty (tag-less) frame")
      else if t.len < 4 + n then Ok None
      else begin
        let frame = Bytes.sub t.buf 4 n in
        t.len <- t.len - 4 - n;
        Bytes.blit t.buf (4 + n) t.buf 0 t.len;
        Metrics.add m_rx_bytes (4 + n);
        Metrics.incr m_rx_frames;
        Metrics.observe_int h_frame_bytes n;
        Ok (Some frame)
      end
end

let read_frame ?(deadline = Retry.no_deadline) fd =
  let inbox = Inbox.create () in
  let rec next () =
    match Inbox.take inbox with
    | Ok (Some frame) -> Ok frame
    | Error _ as e -> e
    | Ok None when wait_io ~read:true fd deadline ->
      Result.bind (Inbox.fill ~exact:true inbox fd) next
    | Ok None ->
      Metrics.incr m_timeouts;
      Error (Timeout "read_frame")
  in
  next ()

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

(* A reply that must carry tag [expect]: an [E] reply surfaces as
   [Peer_error], any other tag as [Bad_frame]. *)
let expect_reply expect reply =
  match Bytes.get reply 0 with
  | exception Invalid_argument _ -> Error (Bad_frame "empty reply")
  | 'E' -> (
    match parse_error_frame reply with
    | Some (c, detail) -> Error (Peer_error (c, detail))
    | None -> Error (Bad_frame "garbled error frame"))
  | c when c = expect -> Ok reply
  | c -> Error (Bad_frame (Printf.sprintf "expected %C reply, got %C" expect c))

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
let recv_frame ?faults ?deadline fd =
  match read_frame ?deadline fd with
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
   links to its followers, a client session's links to every server, and
   the one-exchange links of a probe, scrape, collection or shutdown.
   A slot holds at most one connection, dialed on first use. A failed
   write or read drops it — closed and forgotten here, the one place a
   link is closed — so the next use dials fresh and a late reply can
   never be read as the answer to a later request. Retry policy stays
   with the owner: the leader redials once on a stale cached link, a
   client session backs off, the rest do not retry. *)
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

  let fd l i = l.fds.(i)
  let cached l i = Option.is_some l.fds.(i)

  let drop l i =
    match l.fds.(i) with
    | Some fd ->
      close_quietly fd;
      l.fds.(i) <- None
    | None -> ()

  let close l = Array.iteri (fun i _ -> drop l i) l.fds

  let scoped ~tuning ~retry_refused peers f =
    ignore_sigpipe ();
    let l = create ~tuning ~retry_refused peers in
    Fun.protect ~finally:(fun () -> close l) (fun () -> f l)

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

  let request l i ~expect payload =
    match post l i payload with
    | Error e -> Error e
    | Ok (fd, deadline) ->
      Result.bind (read l i ~deadline fd) (expect_reply expect)
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

let health_to_json h =
  Printf.sprintf
    "{\"server\":%d,\"epoch\":%d,\"pending\":%d,\"accepted\":%d,\"ckpt_age\":%s,\"peers\":[%s]}"
    h.h_server h.h_epoch h.h_pending h.h_accepted
    (match h.h_ckpt_age with
    | None -> "null"
    | Some age -> Printf.sprintf "%.17g" age)
    (String.concat ","
       (List.map (fun (j, up) -> Printf.sprintf "[%d,%b]" j up) h.h_peers))

let health_of_json text =
  let module J = Prio_obs.Json in
  let ( let* ) = Option.bind in
  let int = function
    | J.Num x when Float.is_integer x -> Some (int_of_float x)
    | _ -> None
  in
  let peer = function
    | J.Arr [ j; J.Bool up ] -> Option.map (fun j -> (j, up)) (int j)
    | _ -> None
  in
  match J.parse text with
  | exception J.Error _ -> None
  | doc ->
    let field k f = Option.bind (J.member k doc) f in
    let* h_server = field "server" int in
    let* h_epoch = field "epoch" int in
    let* h_pending = field "pending" int in
    let* h_accepted = field "accepted" int in
    let* h_ckpt_age =
      field "ckpt_age" (function
        | J.Null -> Some None
        | J.Num age -> Some (Some age)
        | _ -> None)
    in
    let* h_peers =
      field "peers" (function
        | J.Arr ps ->
          let peers = List.filter_map peer ps in
          if List.compare_lengths peers ps = 0 then Some peers else None
        | _ -> None)
    in
    Some { h_server; h_epoch; h_pending; h_accepted; h_ckpt_age; h_peers }

let reply_body reply = Bytes.sub_string reply 1 (Bytes.length reply - 1)

(** Ask one server for its {!health} ([h] → [H]). No retry, and a refused
    port fails at once: a supervisor wants the current truth, and an
    error is itself the signal (dial refused = port dead, timeout =
    process wedged). *)
let probe_health ?(tuning = default_tuning) addr :
    (health, protocol_error) result =
  Links.scoped ~tuning ~retry_refused:false [| addr |] @@ fun l ->
  Result.bind (Links.request l 0 ~expect:'H' (tagged 'h' Bytes.empty))
    (fun reply ->
      match health_of_json (reply_body reply) with
      | Some h -> Ok h
      | None -> Error (Bad_frame "bad health payload"))

(** Pull one server's live metrics registry over TCP ([q] → [m]) as
    Prometheus exposition text or the {!Prio_obs.Report.json} snapshot —
    the scrape endpoint, without embedding an HTTP server. *)
let scrape_metrics ?(tuning = default_tuning) ?(format = `Prometheus) addr :
    (string, protocol_error) result =
  let fmt = match format with `Prometheus -> 'p' | `Json -> 'j' in
  Links.scoped ~tuning ~retry_refused:false [| addr |] @@ fun l ->
  Result.map reply_body
    (Links.request l 0 ~expect:'m' (tagged 'q' (Bytes.make 1 fmt)))

(** A fault-tolerant TCP deployment of Prio: one OS process per server
    speaking length-prefixed frames over real sockets, clients uploading
    one sealed packet per server, and the leader driving the two SNIP
    gossip rounds over persistent server-to-server connections — the
    shape of the paper's five-data-center cluster.

    Every socket operation is deadline-bounded, frames are size-capped,
    protocol deviations surface as {!protocol_error} values answered
    with [E] frames, clients retry with backoff against idempotent
    servers, decision broadcasts are two-phase (followers journal the
    verdict to an HMAC-chained write-ahead log and ack with a [c] frame
    before the leader acks the client; partial broadcasts surface as
    [Commit_pending] and are repaired on resubmission), a leader
    degrades gracefully when a follower dies, and the
    forked processes are supervised ({!Make.poll_servers} /
    {!Make.restart_server}). The whole frame path accepts a
    deterministic {!Faults} injector for reproducible chaos runs. See
    the implementation header for the frame grammar and
    docs/PROTOCOL.md §8 for the failure matrix. *)

(** Machine-readable refusal codes carried by [E] frames. *)
type error_code =
  | Too_large  (** frame length exceeds the receiver's cap *)
  | Malformed_frame  (** empty frame, short body, or unparseable payload *)
  | Unknown_tag
  | Unknown_client  (** no pending share / recorded verdict for this id *)
  | Unavailable  (** server degraded (e.g. a follower is down) *)
  | Rejected  (** submission definitively refused *)
  | Busy  (** admission queue full; retryable — clients back off *)
  | Commit_pending
      (** the leader journaled the verdict but a follower has not acked
          it, or the leader lost the share in a restart before deciding;
          the client resubmits so the broadcast can be repaired or the
          share re-seeded *)

(** Everything that can go wrong on the wire, as a value. *)
type protocol_error =
  | Timeout of string  (** deadline expired *)
  | Closed of string  (** EOF / EPIPE / ECONNRESET / refused dial *)
  | Frame_oversize of int  (** peer announced a frame above the cap *)
  | Bad_frame of string  (** framing or payload violation *)
  | Peer_error of error_code * string  (** peer answered with an [E] frame *)
  | Io_error of string  (** any other socket-level error *)

val string_of_error_code : error_code -> string
val string_of_protocol_error : protocol_error -> string

val ignore_sigpipe : unit -> unit
(** Make a peer closing mid-write surface as [EPIPE] instead of killing
    the process. Idempotent; called by every entry point. *)

val max_frame_bytes : int
(** 16 MiB: the frame cap. Frames announcing more are refused before
    allocation. *)

(** Deployment-wide knobs; tests shrink the timeouts. *)
type tuning = {
  io_timeout : float;  (** per-frame read/write deadline, seconds *)
  dial_timeout : float;  (** per-connection-establishment deadline *)
  backoff : Retry.backoff;  (** client-side RPC retry schedule *)
  max_pending : int;
      (** admission cap (default 1024): uploads beyond this many
          in-flight submissions are shed with a retryable [Busy] frame *)
  epoch_size : int;
      (** decisions per replay/idempotency epoch (default 0 = never
          rotate); setting it keeps server memory flat over unbounded
          streams *)
  checkpoint_dir : string option;
      (** snapshot directory (default [None] = durability off); with it
          set, servers persist after decisions and
          {!Make.restart_server} resumes mid-collection *)
  checkpoint_every : int;
      (** decisions between snapshots (default 16). Every acknowledged
          decision is already in the fsynced decision journal, so the
          cadence loses nothing; it bounds how many journal records a
          restart replays *)
  trace_dir : string option;
      (** span-dump directory (default [None]); with it set, each server
          process records its spans under origin ["server<id>"] and dumps
          [<trace_dir>/server<id>.jsonl] on clean shutdown, ready for
          {!Prio_obs.Trace.merge} *)
}

val default_tuning : tuning

(** {2 Frame-level primitives}

    Exposed so tests (and adversaries in tests) can speak the wire
    protocol directly. *)

val put_u32 : int -> Bytes.t
val get_u32 : Bytes.t -> int -> int
val tagged : char -> Bytes.t -> Bytes.t

val ctx_bytes : unit -> Bytes.t
(** Length-prefixed trace-context suffix ([u16 len ‖ context]) carried by
    the causal frames ([P]/[V]/[o]/[d]/[a]/[r]): the calling domain's
    current {!Prio_obs.Trace.context} when a span is open, else the
    2-byte empty suffix. Hand-crafted frames must include it. *)

val get_ctx : Bytes.t -> int -> Prio_obs.Trace.context option * int
(** [get_ctx frame off] parses a {!ctx_bytes} suffix at [off]: the
    context (when present and well-formed) and the offset just past the
    suffix. Total — truncated or garbled suffixes degrade to [None]. *)

val write_frame :
  ?deadline:Retry.deadline -> Unix.file_descr -> Bytes.t ->
  (unit, protocol_error) result
(** Length-prefix and send one frame: header and payload are assembled
    into a single buffer and pushed through one bounded write loop. *)

val read_frame :
  ?deadline:Retry.deadline -> ?max_bytes:int -> Unix.file_descr ->
  (Bytes.t, protocol_error) result
(** Read one frame. [Frame_oversize] is returned {e before} allocating a
    peer-announced buffer; empty (tag-less) frames are [Bad_frame]. *)

val send_frame :
  ?faults:Faults.t -> ?deadline:Retry.deadline -> Unix.file_descr ->
  Bytes.t -> (unit, protocol_error) result
(** {!write_frame} through an optional fault injector ([Drop] pretends
    the frame went out; [Crash] exits the calling process). An injected
    [Disconnect] shuts the connection down (the peer reads EOF) and
    returns [Closed], but leaves [fd] open: its owner closes it once. *)

val recv_frame :
  ?faults:Faults.t -> ?deadline:Retry.deadline -> ?max_bytes:int ->
  Unix.file_descr -> (Bytes.t, protocol_error) result
(** {!read_frame} through an optional fault injector (a dropped reply
    surfaces as [Timeout]; a [Disconnect] behaves as in {!send_frame}). *)

val error_frame : error_code -> string -> Bytes.t
(** Build an [E] frame: ['E'] ‖ code byte ‖ detail. *)

val parse_error_frame : Bytes.t -> (error_code * string) option
(** Decode an [E] frame (first byte already known to be ['E']). *)

val dial :
  ?deadline:Retry.deadline -> ?retry_refused:bool -> Unix.sockaddr ->
  (Unix.file_descr, protocol_error) result
(** Connect under a deadline with a fresh socket per attempt (a socket
    that failed [connect] is never reused). With [retry_refused]
    (default), ECONNREFUSED / ETIMEDOUT / EHOSTUNREACH / ENETUNREACH are
    retried until the deadline; without it they fail immediately so a
    caller with its own backoff does not spin on a dead port. *)

(** {2 Health probes and live metrics scrape}

    Process-liveness supervision ([waitpid]) sees only alive/dead; these
    in-band probes distinguish "serving", "serving but degraded", and
    "alive but wedged", and pull live metrics out of a running server
    without embedding an HTTP endpoint. *)

(** One server's answer to an [h] probe. *)
type health = {
  h_server : int;  (** server id (0 = leader) *)
  h_epoch : int;  (** current replay/idempotency epoch *)
  h_pending : int;  (** admission-queue depth (in-flight submissions) *)
  h_accepted : int;  (** submissions folded into the accumulator *)
  h_ckpt_age : float option;
      (** seconds since the process last wrote a snapshot; [None] when
          durability is off or nothing has been checkpointed yet *)
  h_peers : (int * bool) list;
      (** leader only: per-follower [(server id, gossip link cached)] —
          [false] means the persistent connection was dropped after a
          failure (it is redialed on demand) *)
}

val probe_health :
  ?tuning:tuning -> Unix.sockaddr -> (health, protocol_error) result
(** Ask one server for its {!health} over a fresh connection ([h] → [H]).
    The error is itself a signal: a refused dial means the port is dead,
    a timeout that the process is wedged. *)

val scrape_metrics :
  ?tuning:tuning -> ?format:[ `Prometheus | `Json ] ->
  Unix.sockaddr -> (string, protocol_error) result
(** Pull one server's live metrics registry over TCP ([q] → [m]) as
    Prometheus exposition text (default) or the
    {!Prio_obs.Report.json} snapshot (which carries p50/p95/p99 per
    histogram — the per-stage latency view). *)

module Make (F : Prio_field.Field_intf.S) : sig
  module C : module type of Prio_circuit.Circuit.Make (F)
  module Client : module type of Client.Make (F)

  type config = {
    circuit : C.t;
    trunc_len : int;
    num_servers : int;
    master : Bytes.t;
    batch_seed : Bytes.t;
        (** all servers derive the shared batch secrets (r, z) from this;
            a deployment would distribute it over the authenticated
            server-to-server channels *)
  }

  (** One server's protocol without sockets, files or clocks: admission,
      the leader's two SNIP gossip rounds, the two-phase decision
      broadcast, epoch rotation and the snapshot cadence. {!serve} drives
      it over TCP; a test can wire several nodes' {!effects} straight
      into each other's {!handle}. *)
  module Node : sig
    (** Everything the core asks of the outside world. *)
    type effects = {
      scatter :
        ?skip:int -> Bytes.t ->
        (unit -> (Bytes.t, protocol_error) result option array);
          (** leader only: post the frame to every follower but [skip]
              (0-based follower index) now, and return a thunk that
              gathers their replies in follower order ([None] for
              [skip]). The leader's own step runs between the two. *)
      drop : int -> unit;
          (** drop the link to a follower whose reply desynced the stream *)
      journal : Checkpoint.Make(F).journal_entry -> bool;
          (** the write-ahead append, durable on return; [false] when the
              journal refused the record *)
      snapshot : Server.Make(F).t -> unit;
          (** persist this state and truncate the journal it absorbed *)
    }

    type context
    (** What every server of a deployment verifies against, fixed for the
        whole deployment: the batch secrets r and z derived from
        [batch_seed] with their fixed-r Lagrange weights, over
        [config.circuit] as deployed. *)

    val context : config -> context
    (** Build the context: derive the batch secrets from [batch_seed].
        [config.circuit] is taken as given, not optimized here: shares
        parse only when clients prove over the same circuit (build it
        through [Afe.compile], or call [Opt.optimize] once). The secrets
        are the same for any caller given the same config, so one context
        serves every node; {!launch} builds it once, before forking. *)

    type t

    val create : tuning:tuning -> context -> id:int -> effects -> t
    (** A fresh server [id] over a context built by {!context}; nothing
        is derived here, so a restart starts serving at once. Reads
        [tuning]'s [max_pending], [epoch_size] and [checkpoint_every]. *)

    val server : t -> Server.Make(F).t
    (** The accumulator and replay state, for restoring a snapshot into
        before {!replay}, and for health. *)

    val depth : t -> int
    (** Admission-queue depth: uploads not yet decided. *)

    val replay : t -> Checkpoint.Make(F).journal_entry list -> unit
    (** Re-apply journal entries past the restored snapshot's
        [journal_seq] watermark. The leader marks them uncommitted, so a
        retried [V] repairs a broadcast the crash cut short. *)

    val handle : t -> Bytes.t -> Bytes.t * [ `Keep | `Close ]
    (** Answer one [P], [V], [o], [d], [a], [r] or [Q] frame with the
        reply frame; [`Close] when the stream is malformed or the tag
        unknown. *)
  end

  val serve :
    ?tuning:tuning -> ?faults:Faults.t -> ?restore_min_epoch:int ->
    Node.context -> id:int -> listen_fd:Unix.file_descr ->
    follower_addrs:Unix.sockaddr array -> unit
  (** Run one server until an [X] frame arrives: a {!Node} behind a
      select loop that blocks until a connection is readable. The
      context comes from the caller ({!launch} and {!restart_server}
      pass the deployment's one {!Node.context}), so the server derives
      nothing before it serves. The leader
      (id 0) dials the followers, lazily redialing dead ones. The
      listener must already be bound. [faults] sits on this server's
      frame-receive path and may [Crash] the process. With
      [tuning.checkpoint_dir] set the server restores its latest valid
      snapshot at startup (rejecting corrupted / truncated / wrong-key
      snapshots and epochs below [restore_min_epoch], falling back to a
      clean start), replays the decision-journal suffix past the
      snapshot's watermark, and snapshots every [checkpoint_every]
      decisions (each snapshot truncating the journal). *)

  type deployment = {
    cfg : config;
    context : Node.context;
        (** built once by {!launch}; every server process, restarts
            included, verifies against it *)
    tuning : tuning;
    addrs : Unix.sockaddr array;  (** server 0 is the leader *)
    pids : int array;  (** current pid per server (restarts update it) *)
    statuses : Unix.process_status option array;
        (** [Some] once the process has been reaped *)
    faults_for : int -> Faults.t option;
  }

  val launch :
    ?tuning:tuning -> ?faults_for:(int -> Faults.t option) -> config ->
    deployment
  (** Fork one process per server on loopback sockets (ephemeral ports);
      [faults_for] installs chaos injectors on chosen servers. The
      {!Node.context} is built here, in the calling process, before the
      first fork, and every child inherits it. *)

  (** {2 Supervision} *)

  type server_status = Running | Exited of Unix.process_status

  val poll_servers : deployment -> server_status array
  (** Non-blocking health check ([waitpid WNOHANG]); reaps and records
      any server process that died. *)

  val restart_server : ?min_epoch:int -> deployment -> int -> unit
  (** Revive a dead server on its original port. With
      [tuning.checkpoint_dir] set it resumes from the latest valid
      snapshot (accepted submissions up to the last checkpoint survive);
      otherwise it restarts with fresh per-batch state. [min_epoch]
      refuses authentic-but-stale snapshots. The new process reuses the
      deployment's {!Node.context}, so it re-derives nothing before it
      serves.
      @raise Invalid_argument if it is still running. *)

  (** What a health sweep concluded about one server — strictly more
      signal than {!server_status}. *)
  type probe =
    | Probe_ok of health
    | Probe_degraded of health * string  (** serving, but impaired *)
    | Probe_unreachable of protocol_error
        (** process alive, probe failed — wedged or unresponsive *)
    | Probe_dead of Unix.process_status  (** process reaped *)

  val probe_deployment : deployment -> probe array
  (** One supervision sweep: {!poll_servers} liveness first, then an [h]
      probe of every live server. Exports the verdict as the
      [prio_supervisor_down] / [prio_supervisor_degraded] gauges in the
      calling process. *)

  val supervise : ?min_epoch:int -> deployment -> int list
  (** Probe-driven supervision: restart the dead, kill-then-restart the
      live-but-unresponsive (the wedged state liveness polling cannot
      see), leave degraded-but-serving servers alone (dropped gossip
      links heal by on-demand redial). Returns the restarted ids. Probes
      share the deployment's [io_timeout] — keep it comfortably above
      the longest single-frame stall a healthy server can have. *)

  (** {2 Clients} *)

  (** What happened to a submission, beyond a bare boolean. *)
  type outcome =
    | Accepted
    | Rejected of string  (** the cluster answered definitively *)
    | Unreachable of protocol_error  (** retries exhausted *)

  (** {2 Streaming sessions}

      Persistent connections for high-volume clients: one dial per
      server amortized over the stream, instead of a fresh connection
      per RPC (which parks every closed connection in TIME_WAIT and
      exhausts loopback's ephemeral ports around 100k submissions).
      Every client submission runs over a session. *)

  type session

  val open_session : deployment -> session
  (** Lazy: connections are dialed on first use and redialed after any
      transport error (so a restarted server heals transparently). Not
      domain-safe — one session per submitting thread. *)

  val close_session : session -> unit

  val submit_packets_session :
    ?faults:Faults.t -> session -> rng:Prio_crypto.Rng.t ->
    client_id:int -> Client.packets -> outcome
  (** Upload already-sealed packets (one per server) over the session's
      cached connections, then send the leader's verify trigger. The [P]
      frames go out to every server before any reply is read, so the
      servers admit their shares in parallel; a server whose upload
      failed, was shed ([Busy], retried on the same connection) or came
      back garbled retries alone on the backoff schedule, and duplicates
      produced by retries are re-acked idempotently by the servers. [V]
      goes out only once every server acked its upload. A
      [Commit_pending] verify reply re-runs the whole submission, up to
      4 rounds, so the leader can repair the partial broadcast.
      @raise Invalid_argument on a packet-count/server-count mismatch. *)

  val submit_batch :
    ?faults:Faults.t -> ?domains:int -> deployment ->
    rng:Prio_crypto.Rng.t -> (int * Client.packets) array -> outcome array
  (** Drive a prepared batch with [domains] submissions in flight at
      once (default 1 = serial), each over a throwaway session; outcomes
      come back in packet order and match a serial run — per-client
      decisions are independent of arrival order. Per-packet RNGs are
      split from [rng] in packet order before dispatch, so the run is
      deterministic. *)

  val collect_aggregate :
    deployment -> (F.t array, int * protocol_error) result
  (** Query every server's accumulator and sum. [Error (i, e)] names the
      first unreachable or garbled server and the structured cause. *)

  val shutdown : deployment -> unit
  (** Stop and reap every server process: polite [X] frames, a grace
      period, then SIGKILL — terminates even with wedged or dead
      servers. *)
end

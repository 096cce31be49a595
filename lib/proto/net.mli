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
          it; the client resubmits so the broadcast can be repaired *)

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

val default_max_frame_bytes : int
(** 16 MiB. *)

(** Deployment-wide knobs; tests shrink the timeouts. *)
type tuning = {
  max_frame_bytes : int;  (** reject frames announcing more than this *)
  io_timeout : float;  (** per-frame read/write deadline, seconds *)
  dial_timeout : float;  (** per-connection-establishment deadline *)
  select_tick : float;  (** serve-loop wakeup when idle *)
  backoff : Retry.backoff;  (** client-side RPC retry schedule *)
  verify_domains : int;
      (** worker domains per server process for SNIP preparation
          (default 1 = inline on the event loop); with more, preparation
          is queued eagerly at upload time and overlaps frame handling *)
  max_pending : int;
      (** admission cap (default 1024): uploads beyond this many
          in-flight submissions are shed with a retryable [Busy] frame *)
  epoch_size : int;
      (** decisions per replay/idempotency epoch (default 0 = never
          rotate); setting it keeps server memory flat over unbounded
          streams *)
  epoch_max_age_s : float;
      (** maximum epoch age in seconds before rotation (default 0 = no
          age trigger); either trigger closes the epoch, so a trickle
          of decisions cannot keep replay state resident forever *)
  clock : Prio_obs.Clock.t;
      (** drives the epoch-age trigger (default the system clock;
          injectable for tests) *)
  checkpoint_dir : string option;
      (** snapshot directory (default [None] = durability off); with it
          set, servers persist after decisions and
          {!Make.restart_server} resumes mid-collection *)
  checkpoint_every : int;
      (** decisions between snapshots (default 16). Every acknowledged
          decision is already in the fsynced decision journal, so the
          cadence loses nothing; it bounds how many journal records a
          restart replays *)
  journal_fsync : bool;
      (** fsync every decision-journal append before acknowledging it
          (default [true]); turning it off trades the write-ahead
          guarantee for throughput in tests and benchmarks *)
  max_resubmits : int;
      (** client-side resubmission rounds after a [Commit_pending]
          verify reply (default 4) before giving up as rejected *)
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

  val serve :
    ?tuning:tuning -> ?faults:Faults.t -> ?restore_min_epoch:int ->
    config -> id:int -> listen_fd:Unix.file_descr ->
    follower_addrs:Unix.sockaddr array -> unit
  (** Run one server's event loop until an [X] frame arrives; the leader
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
      [faults_for] installs chaos injectors on chosen servers. *)

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
      refuses authentic-but-stale snapshots.
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

  val submit_packets_outcome :
    ?faults:Faults.t -> deployment -> rng:Prio_crypto.Rng.t ->
    client_id:int -> Client.packets -> outcome
  (** Upload already-sealed packets (one scatter-gather upload round to
      every server, then the leader's verify trigger) over a throwaway
      session — the packet-level entry point for callers that prepared
      submissions up front and want to compare wire traffic against
      [packets.upload_bytes].
      @raise Invalid_argument on a packet-count/server-count mismatch. *)

  val submit_packets :
    ?faults:Faults.t -> deployment -> rng:Prio_crypto.Rng.t ->
    client_id:int -> Client.packets -> bool
  (** [submit_packets_outcome] collapsed to "accepted?". *)

  (** {2 Streaming sessions}

      Persistent connections for high-volume clients: one dial per
      server amortized over the stream, instead of a fresh connection
      per RPC (which parks every closed connection in TIME_WAIT and
      exhausts loopback's ephemeral ports around 100k submissions).
      Every client entry point runs over a session; the one-shot ones
      open a throwaway session and close it when the submission ends. *)

  type session

  val open_session : deployment -> session
  (** Lazy: connections are dialed on first use and redialed after any
      transport error (so a restarted server heals transparently). Not
      domain-safe — one session per submitting thread. *)

  val close_session : session -> unit

  val submit_packets_session :
    ?faults:Faults.t -> session -> rng:Prio_crypto.Rng.t ->
    client_id:int -> Client.packets -> outcome
  (** {!submit_packets_outcome} over the session's cached connections.
      The [P] frames go out to every server before any reply is read,
      so the servers admit their shares in parallel; a server whose
      upload failed, was shed ([Busy], retried on the same connection)
      or came back garbled retries alone on the backoff schedule. [V]
      goes out only once every server acked its upload. *)

  val submit_session :
    ?faults:Faults.t -> session -> rng:Prio_crypto.Rng.t ->
    client_id:int -> F.t array -> outcome
  (** Seal and upload one encoding over the session. *)

  val submit_outcome :
    ?faults:Faults.t -> deployment -> rng:Prio_crypto.Rng.t ->
    client_id:int -> F.t array -> outcome
  (** Upload one client's encoding over TCP (one upload round to every
      server, then the leader's verify trigger), with per-frame deadlines
      and backoff retries; duplicates produced by retries are re-acked
      idempotently by the servers. *)

  val submit :
    ?faults:Faults.t -> deployment -> rng:Prio_crypto.Rng.t ->
    client_id:int -> F.t array -> bool
  (** [submit_outcome] collapsed to "accepted?". *)

  val submit_batch :
    ?faults:Faults.t -> ?domains:int -> deployment ->
    rng:Prio_crypto.Rng.t -> (int * Client.packets) array -> outcome array
  (** Drive a prepared batch with [domains] submissions in flight at
      once (default 1 = serial); outcomes come back in packet order and
      match a serial run — per-client decisions are independent of
      arrival order. Per-packet RNGs are split from [rng] in packet
      order before dispatch, so the run is deterministic. *)

  val collect_aggregate :
    deployment -> (F.t array, int * protocol_error) result
  (** Query every server's accumulator and sum. [Error (i, e)] names the
      first unreachable or garbled server and the structured cause. *)

  val shutdown : deployment -> unit
  (** Stop and reap every server process: polite [X] frames, a grace
      period, then SIGKILL — terminates even with wedged or dead
      servers. *)
end

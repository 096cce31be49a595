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
    deterministic {!Faults} injector for reproducible chaos runs.

    This unit is the TCP driver, launch, supervision and the client. It
    re-exports the wire layer ({!Transport}: errors, tuning, frames,
    links, probe and scrape; its implementation header has the frame
    grammar) and the socket-free server protocol ({!Node}, as
    [Make(F).Node]). docs/PROTOCOL.md §8 has the failure matrix. *)

include module type of struct
  include Transport
end

module Make (F : Prio_field.Field_intf.S) : sig
  include module type of struct
    include Node.Make (F)
  end

  module Client : module type of Client.Make (F)

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

(** The wire layer of the TCP deployment ({!Net}): protocol errors, the
    deployment tuning, length-prefixed frames with their trace-context
    suffix, [E] refusals, deadline- and fault-aware frame I/O, dialing,
    persistent peer links, and the in-band health probe and metrics
    scrape. The implementation header lists the frame grammar;
    docs/PROTOCOL.md §8 has the failure matrix. *)

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
          [Net.Make.restart_server] resumes mid-collection *)
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
(** Four big-endian bytes ({!Wire.set_u32}). *)

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

(** One connection's received bytes, reassembled into frames without
    blocking: an event loop {!Inbox.fill}s it once per readable event and
    {!Inbox.take}s each complete frame, so a peer that stalls mid-frame
    holds up only its own connection. *)
module Inbox : sig
  type t

  val create : unit -> t

  val fill : ?exact:bool -> t -> Unix.file_descr -> (unit, protocol_error) result
  (** One [read] of what a readable socket holds ([Closed] at EOF); with
      [exact], no more than the frame at hand still lacks. *)

  val take : t -> (Bytes.t option, protocol_error) result
  (** The next complete frame, [None] while it is partial; a header
      announcing more than {!max_frame_bytes} is [Frame_oversize] before
      its body is read, an empty frame [Bad_frame]. *)

  val clear : t -> unit
  (** Forget everything received (the connection was replaced). *)
end

val read_frame :
  ?deadline:Retry.deadline -> Unix.file_descr -> (Bytes.t, protocol_error) result
(** Read one frame, and nothing past it, through an {!Inbox}: the same
    refusals, and [Timeout] at the deadline. *)

val send_frame :
  ?faults:Faults.t -> ?deadline:Retry.deadline -> Unix.file_descr ->
  Bytes.t -> (unit, protocol_error) result
(** {!write_frame} through an optional fault injector ([Drop] pretends
    the frame went out; [Crash] exits the calling process). An injected
    [Disconnect] shuts the connection down (the peer reads EOF) and
    returns [Closed], but leaves [fd] open: its owner closes it once. *)

val recv_frame :
  ?faults:Faults.t -> ?deadline:Retry.deadline -> Unix.file_descr ->
  (Bytes.t, protocol_error) result
(** {!read_frame} through an optional fault injector (a dropped reply
    surfaces as [Timeout]; a [Disconnect] behaves as in {!send_frame}). *)

val error_frame : error_code -> string -> Bytes.t
(** Build an [E] frame: ['E'] ‖ code byte ‖ detail. *)

val parse_error_frame : Bytes.t -> (error_code * string) option
(** Decode an [E] frame (first byte already known to be ['E']). *)

val expect_reply : char -> Bytes.t -> (Bytes.t, protocol_error) result
(** A reply that must carry the given tag: an [E] reply is [Peer_error],
    any other tag (or none) [Bad_frame]. *)

val close_quietly : Unix.file_descr -> unit
(** Close, ignoring a descriptor that is already gone. *)

val dial :
  ?deadline:Retry.deadline -> ?retry_refused:bool -> Unix.sockaddr ->
  (Unix.file_descr, protocol_error) result
(** Connect under a deadline with a fresh socket per attempt (a socket
    that failed [connect] is never reused). With [retry_refused]
    (default), ECONNREFUSED / ETIMEDOUT / EHOSTUNREACH / ENETUNREACH are
    retried until the deadline; without it they fail immediately so a
    caller with its own backoff does not spin on a dead port. *)

(** {2 Peer links}

    Persistent connections to a fixed set of peers, at most one per
    peer, dialed on first use (under [tuning.dial_timeout]) and dropped
    on any failed write or read, so a late reply is never read as the
    answer to a later request. Retry policy stays with the owner. *)
module Links : sig
  type t

  val create : tuning:tuning -> retry_refused:bool -> Unix.sockaddr array -> t
  (** [retry_refused] is {!dial}'s: the leader's gossip links and a
      collection wait out a refused port until the dial deadline; a
      client session, a probe and a shutdown fail fast. *)

  val scoped :
    tuning:tuning -> retry_refused:bool -> Unix.sockaddr array ->
    (t -> 'a) -> 'a
  (** Links that live for one call of [f] and are closed after it. *)

  val fd : t -> int -> Unix.file_descr option
  (** Peer [i]'s open connection, without dialing. *)

  val cached : t -> int -> bool
  (** Is a connection to peer [i] open? *)

  val drop : t -> int -> unit
  (** Close and forget peer [i]'s connection, if any. *)

  val close : t -> unit

  val connect : t -> int -> (Unix.file_descr, protocol_error) result
  (** The cached connection to peer [i], dialing one if there is none. *)

  val post :
    ?faults:Faults.t -> t -> int -> Bytes.t ->
    (Unix.file_descr * Retry.deadline, protocol_error) result
  (** Send one request to peer [i]: the connection and the deadline its
      reply is due by ([tuning.io_timeout] from now). *)

  val read :
    ?faults:Faults.t -> t -> int -> deadline:Retry.deadline ->
    Unix.file_descr -> (Bytes.t, protocol_error) result
  (** Read peer [i]'s reply to a {!post}. *)

  val request :
    t -> int -> expect:char -> Bytes.t -> (Bytes.t, protocol_error) result
  (** One exchange with peer [i], no retry. The reply must carry tag
      [expect]: an [E] reply is [Peer_error], any other tag [Bad_frame]. *)
end

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

val health_to_json : health -> string
(** The [H] payload:
    [{"server":0,"epoch":0,"pending":0,"accepted":2,"ckpt_age":null,
      "peers":[[1,true],[2,true]]}] ([ckpt_age] a number once a snapshot
    was written). *)

val health_of_json : string -> health option
(** Inverse of {!health_to_json}; [None] on text that is not JSON, or on
    a missing or wrongly typed member. *)

val probe_health :
  ?tuning:tuning -> Unix.sockaddr -> (health, protocol_error) result
(** Ask one server for its {!health} ([h] → [H]), with no retry; a
    refused port fails at once as [Closed]. The error is itself a
    signal: a refused dial means the port is dead, a timeout that the
    process is wedged; a malformed payload is [Bad_frame]. *)

val scrape_metrics :
  ?tuning:tuning -> ?format:[ `Prometheus | `Json ] ->
  Unix.sockaddr -> (string, protocol_error) result
(** Pull one server's live metrics registry over TCP ([q] → [m]) as
    Prometheus exposition text (default) or the
    {!Prio_obs.Report.json} snapshot (which carries p50/p95/p99 per
    histogram — the per-stage latency view). *)

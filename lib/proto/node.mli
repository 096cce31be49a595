(** The server protocol of the TCP deployment, without sockets, files or
    clocks. {!Net} re-exports it as [Net.Make(F).Node] and drives it over
    TCP; the frames it answers are {!Transport}'s. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module C : module type of Prio_circuit.Circuit.Make (F)

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
      broadcast, epoch rotation and the snapshot cadence. [Net.Make.serve]
      drives it over TCP; a test can wire several nodes' {!effects}
      straight into each other's {!handle}.

      The leader is event-driven: it keeps one round per submission in
      flight (opening, deciding, committing), keyed by client id, and
      serves other frames while a round waits on its followers. The
      followers' replies are inputs ({!handle} from [Follower j]); a
      follower answers each link's frames in order, so a reply belongs to
      the oldest request still owed on its link. *)
  module Node : sig
    (** Where a frame came from. *)
    type origin =
      | Client of (Bytes.t -> unit)
          (** a client's connection (for a follower, also the leader's
              link), answered through this function: at once, or for a
              [V] when its round ends *)
      | Follower of int
          (** leader only: follower [j]'s link (0-based); each frame is a
              reply to the oldest request posted to [j] *)

    (** Everything the core asks of the outside world. *)
    type effects = {
      send : int -> Bytes.t -> unit;
          (** leader only: post the frame to follower [j] (0-based). Its
              reply comes back as a {!handle} input from [Follower j], or
              the link fails as one {!follower_failed} input. Never calls
              back into the node. *)
      drop : int -> unit;
          (** drop the link to a follower whose reply desynced the stream,
              forgetting every request still posted on it: the node has
              failed their rounds itself *)
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
        serves every node; [Net.Make.launch] builds it once, before
        forking. *)

    type t

    val create : tuning:Transport.tuning -> context -> id:int -> effects -> t
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

    val handle : t -> origin -> Bytes.t -> [ `Keep | `Close ]
    (** One frame in. From a [Client]: a [P], [V], [o], [d], [a], [r] or
        [Q] frame, answered through the origin's function — a [V] that
        opens or joins a round when the round ends, every other frame at
        once — and [`Close] when the stream is malformed or the tag
        unknown ([O], [S] and [c] included). From [Follower j]: a reply,
        which advances its round; one that desyncs the link drops it
        ({!effects.drop}) and fails every round still waiting on [j]. *)

    val follower_failed : t -> int -> Transport.protocol_error -> unit
    (** Leader only: follower [j]'s link failed (no reply within
        [Net.serve]'s deadline, EOF, a write error) and every request posted
        on it is lost. Each round waiting on [j] fails: a gossip round
        aborts (a journaled [r] to the other followers, [E/Unavailable]
        to the client), a commit is left partial ([E/Commit_pending]). *)
  end

  val context_config : Node.context -> config
  (** The config a context was built from. *)
end

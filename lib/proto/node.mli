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
      straight into each other's {!handle}. *)
  module Node : sig
    (** Everything the core asks of the outside world. *)
    type effects = {
      scatter :
        ?skip:int -> Bytes.t ->
        (unit -> (Bytes.t, Transport.protocol_error) result option array);
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

    val handle : t -> Bytes.t -> Bytes.t * [ `Keep | `Close ]
    (** Answer one [P], [V], [o], [d], [a], [r] or [Q] frame with the
        reply frame; [`Close] when the stream is malformed or the tag
        unknown. *)
  end

  val context_config : Node.context -> config
  (** The config a context was built from. *)
end

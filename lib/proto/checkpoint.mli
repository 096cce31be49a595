(** Versioned, HMAC-authenticated, atomically-written server snapshots.

    The durability half of the streaming deployment: a server's entire
    resumable state is constant-size (accumulator, accepted count, epoch
    counters, replay-table digest), so a snapshot costs the same however
    long the stream, and a restart replays only the journal records
    since the last one.
    Snapshots are keyed from the deployment master secret per server
    ({!derive_key}); the decoder authenticates before parsing, and
    corrupted, truncated, stale-epoch, or wrong-key snapshots come back
    as typed {!error}s so the caller can fall back to a clean epoch
    restart. Alongside the snapshots lives the per-server {e decision
    journal}: an HMAC-chained, fsynced write-ahead log of every
    accept/reject verdict (plus the server's own truncated share for
    accepts), appended before a decision is acknowledged and truncated
    once a snapshot absorbs it — recovery is snapshot + journal suffix,
    selected by the snapshot's [journal_seq] watermark. See
    docs/PROTOCOL.md §9 for both byte layouts. *)

type error =
  | Truncated  (** shorter than the fixed header + tag *)
  | Bad_magic
  | Bad_version of int
  | Bad_hmac  (** forged, corrupted, wrong server, or wrong master *)
  | Stale_epoch of { snapshot : int; floor : int }
      (** authentic but from an epoch the deployment already closed *)
  | Malformed of string  (** authenticated but internally inconsistent *)
  | Io of string  (** filesystem-level failure (includes a missing file) *)

val string_of_error : error -> string

val derive_key : master:Bytes.t -> server_id:int -> Bytes.t
(** Per-server snapshot MAC key, domain-separated from packet keys. *)

val path : dir:string -> server_id:int -> string
(** Where a server's snapshot lives under [dir]. *)

val derive_journal_key : master:Bytes.t -> server_id:int -> Bytes.t
(** Per-server decision-journal MAC key, domain-separated from the
    snapshot and packet keys. *)

val journal_path : dir:string -> server_id:int -> string
(** Where a server's decision journal lives under [dir]. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module Server : module type of Server.Make (F)

  type snapshot = {
    server_id : int;
    epoch : int;
    accepted : int;
    decided_in_epoch : int;
    journal_seq : int;
        (** decisions absorbed by this snapshot — journal entries with a
            larger sequence must still be replayed after restore *)
    replay_digest : Bytes.t;  (** 32 bytes *)
    accumulator : F.t array;
  }

  val of_server : Server.t -> snapshot
  (** Capture a server's resumable state (deep-copied). *)

  val apply : snapshot -> Server.t -> unit
  (** Overwrite a server's state from a snapshot ({!Server.restore});
      replay/idempotency tables restart empty.
      @raise Invalid_argument on accumulator width mismatch. *)

  val to_bytes : key:Bytes.t -> snapshot -> Bytes.t
  (** Serialize and append the HMAC-SHA256 trailer. *)

  val of_bytes :
    ?min_epoch:int -> key:Bytes.t -> Bytes.t -> (snapshot, error) result
  (** Authenticate-then-parse. [min_epoch] (default 0) rejects authentic
      snapshots from epochs below the floor as [Stale_epoch]. *)

  val save : key:Bytes.t -> dir:string -> snapshot -> (unit, error) result
  (** Write atomically (temp file + [rename]): a crash mid-write leaves
      the previous snapshot intact, never a torn file. The directory is
      fsynced after the rename, so on [Ok] the new snapshot is durable and
      the journal it absorbed may be truncated. *)

  val load :
    ?min_epoch:int -> key:Bytes.t -> dir:string -> server_id:int -> unit ->
    (snapshot, error) result
  (** Read and validate [server_id]'s latest snapshot; a missing file is
      [Io], a snapshot naming another server is [Malformed]. *)

  (** {2 Decision journal} *)

  type journal_entry = {
    j_seq : int;
        (** the server's [journal_seq] after recording this decision *)
    j_client : int;
    j_accepted : bool;
    j_epoch : int;  (** server epoch when the decision was made *)
    j_share : F.t array;
        (** the server's own truncated share for accepted entries (what
            replay re-accumulates); empty for rejections *)
  }

  type journal
  (** An open journal handle, positioned for appending. *)

  val journal_open :
    key:Bytes.t -> dir:string -> server_id:int -> unit ->
    (journal_entry list * journal, error) result
  (** Open (creating if absent) the server's journal, verify the HMAC
      chain and return the surviving entries in append order plus the
      handle. A torn tail (crash mid-append) is silently truncated; a
      chain break before the tail is tampering and fails [Bad_hmac]; a
      journal naming another server is [Malformed]. *)

  val journal_append :
    ?fsync:bool -> journal -> journal_entry -> (unit, error) result
  (** Append one record and extend the chain. With [fsync] (default) the
      record is durable before return — the write-ahead property the
      commit ack depends on. *)

  val journal_truncate : journal -> (unit, error) result
  (** Drop every record (a snapshot absorbed them); the chain restarts
      from the genesis tag. *)

  val journal_close : journal -> unit
end

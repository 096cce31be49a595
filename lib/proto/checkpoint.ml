(** Versioned, authenticated server-state snapshots for crash recovery.

    A long collection window (the paper's §1/§6 deployment story: a
    handful of servers absorbing a stream from millions of clients) must
    survive a server crash without discarding every accepted submission's
    contribution. A snapshot captures exactly the constant-size state a
    streaming server owns — accumulator, accepted count, epoch counters,
    and the 32-byte replay-table digest — never the per-submission
    tables, so checkpoint cost is independent of how many clients have
    been processed.

    Wire layout (all integers big-endian):

    {v
    "PRCK" ‖ version u8 ‖ server_id u32 ‖ epoch u32 ‖ accepted u32
           ‖ decided_in_epoch u32 ‖ journal_seq u32
           ‖ replay_digest (32 bytes)
           ‖ acc_elements u32 ‖ accumulator (acc_elements · F.bytes_len)
           ‖ HMAC-SHA256 tag (32 bytes, over everything before it)
    v}

    The tag is keyed from the deployment master secret and the server id
    ({!derive_key}), so a snapshot forged without the master secret, one
    belonging to a different server, or one from a deployment with a
    different master all fail verification — the decoder authenticates
    before it parses. Files are written atomically (temp file + rename,
    then an fsync of the directory), so a crash mid-write leaves the
    previous snapshot intact rather than a truncated one, and a snapshot
    that [save] reported is still there after a power loss.

    This module also owns the {e decision journal} — the write-ahead log
    that makes every decision durable. Each server appends every decision
    (verdict plus, for accepts, its own truncated share) to an
    HMAC-chained append-only journal {e before} acknowledging it, and the
    journal is truncated once a snapshot has absorbed it. Snapshots are
    periodic (every [checkpoint_every] decisions and at each epoch
    rotation), so their cadence only bounds how many records a restart
    replays. Recovery is snapshot + journal suffix:

    {v
    "PRDJ" ‖ version u8 ‖ server_id u32                        (header)
    seq u32 ‖ client_id u32 ‖ verdict u8 ('a'/'r') ‖ epoch u32
            ‖ nshare u32 ‖ share (nshare · F.bytes_len)
            ‖ chain tag (32 bytes)                             (per record)
    v}

    where [tag_i = HMAC(jkey, tag_{i-1} ‖ record_i_without_tag)] and the
    genesis tag is derived from the per-server journal key — so records
    cannot be forged, reordered, or dropped from the middle without
    breaking the chain. A torn tail (crash mid-append) is detected and
    truncated on open; a broken chain {e not} at the tail is tampering
    and refuses to load. *)

module Hmac = Prio_crypto.Hmac

type error =
  | Truncated  (** shorter than the fixed header + tag *)
  | Bad_magic
  | Bad_version of int
  | Bad_hmac  (** forged, corrupted, wrong server, or wrong master *)
  | Stale_epoch of { snapshot : int; floor : int }
      (** authentic but from an epoch the deployment already closed *)
  | Malformed of string  (** authenticated but internally inconsistent *)
  | Io of string  (** filesystem-level failure (includes a missing file) *)

let string_of_error = function
  | Truncated -> "truncated snapshot"
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported version %d" v
  | Bad_hmac -> "authentication failed"
  | Stale_epoch { snapshot; floor } ->
    Printf.sprintf "stale epoch %d (deployment floor %d)" snapshot floor
  | Malformed what -> "malformed snapshot: " ^ what
  | Io what -> "io: " ^ what

let magic = "PRCK"
let version = 2
let digest_len = 32
let tag_len = 32

(* fixed part: magic (4) + version (1) + 5 u32 counters + digest *)
let header_len = 4 + 1 + (5 * 4) + digest_len

(** Per-server snapshot MAC key, domain-separated from every other use of
    the master secret (packet authboxes use client/server pairs). *)
let derive_key ~master ~server_id =
  Hmac.sha256 ~key:master
    (Bytes.of_string (Printf.sprintf "prio-checkpoint-v1:%d" server_id))

let path ~dir ~server_id =
  Filename.concat dir (Printf.sprintf "server-%d.ckpt" server_id)

let journal_magic = "PRDJ"
let journal_version = 1
let journal_header_len = 4 + 1 + 4

(** Per-server decision-journal MAC key, domain-separated from the
    snapshot key: a snapshot forged from journal material (or vice versa)
    never verifies. *)
let derive_journal_key ~master ~server_id =
  Hmac.sha256 ~key:master
    (Bytes.of_string (Printf.sprintf "prio-journal-v1:%d" server_id))

let journal_path ~dir ~server_id =
  Filename.concat dir (Printf.sprintf "server-%d.djnl" server_id)

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

module Make (F : Prio_field.Field_intf.S) = struct
  module W = Wire.Make (F)
  module Server = Server.Make (F)

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

  let of_server (s : Server.t) : snapshot =
    {
      server_id = s.Server.id;
      epoch = s.Server.epoch;
      accepted = s.Server.accepted;
      decided_in_epoch = s.Server.decided_in_epoch;
      journal_seq = s.Server.journal_seq;
      replay_digest = Bytes.copy s.Server.replay_digest;
      accumulator = Array.copy s.Server.accumulator;
    }

  let apply (snap : snapshot) (s : Server.t) =
    Server.restore s ~journal_seq:snap.journal_seq ~epoch:snap.epoch
      ~accepted:snap.accepted ~decided_in_epoch:snap.decided_in_epoch
      ~replay_digest:snap.replay_digest ~accumulator:snap.accumulator

  let to_bytes ~key (snap : snapshot) : Bytes.t =
    if Bytes.length snap.replay_digest <> digest_len then
      invalid_arg "Checkpoint.to_bytes: replay digest must be 32 bytes";
    let acc = W.vector_to_bytes snap.accumulator in
    let body = Bytes.create (header_len + 4 + Bytes.length acc) in
    Bytes.blit_string magic 0 body 0 4;
    Bytes.set body 4 (Char.chr version);
    put_u32 body 5 snap.server_id;
    put_u32 body 9 snap.epoch;
    put_u32 body 13 snap.accepted;
    put_u32 body 17 snap.decided_in_epoch;
    put_u32 body 21 snap.journal_seq;
    Bytes.blit snap.replay_digest 0 body 25 digest_len;
    put_u32 body (25 + digest_len) (Array.length snap.accumulator);
    Bytes.blit acc 0 body (header_len + 4) (Bytes.length acc);
    Bytes.cat body (Hmac.sha256 ~key body)

  let of_bytes ?(min_epoch = 0) ~key (b : Bytes.t) :
      (snapshot, error) result =
    let len = Bytes.length b in
    if len < header_len + 4 + tag_len then Error Truncated
    else if Bytes.sub_string b 0 4 <> magic then Error Bad_magic
    else if Char.code (Bytes.get b 4) <> version then
      Error (Bad_version (Char.code (Bytes.get b 4)))
    else
      (* authenticate-then-parse: nothing past this point handles
         attacker-controlled bytes *)
      let body = Bytes.sub b 0 (len - tag_len) in
      let tag = Bytes.sub b (len - tag_len) tag_len in
      if not (Hmac.verify ~key ~tag body) then Error Bad_hmac
      else
        let epoch = get_u32 b 9 in
        if epoch < min_epoch then
          Error (Stale_epoch { snapshot = epoch; floor = min_epoch })
        else
          let acc_elements = get_u32 b (25 + digest_len) in
          let acc_bytes = len - tag_len - (header_len + 4) in
          if acc_bytes <> acc_elements * F.bytes_len then
            Error (Malformed "accumulator length mismatch")
          else
            match
              W.vector_of_bytes (Bytes.sub b (header_len + 4) acc_bytes)
            with
            | exception Invalid_argument what -> Error (Malformed what)
            | accumulator ->
              Ok
                {
                  server_id = get_u32 b 5;
                  epoch;
                  accepted = get_u32 b 13;
                  decided_in_epoch = get_u32 b 17;
                  journal_seq = get_u32 b 21;
                  replay_digest = Bytes.sub b 25 digest_len;
                  accumulator;
                }

  (* ------------------------------ files ------------------------------ *)

  let write_file file (b : Bytes.t) : (unit, error) result =
    match
      let fd =
        Unix.openfile file [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let rec push off len =
            if len > 0 then begin
              let w = Unix.write fd b off len in
              push (off + w) (len - w)
            end
          in
          push 0 (Bytes.length b);
          Unix.fsync fd)
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io (file ^ ": " ^ Unix.error_message e))
    | exception Sys_error what -> Error (Io what)

  (* Make a rename inside [dir] durable. Filesystems that cannot fsync a
     directory (EINVAL) order metadata on their own terms. *)
  let fsync_dir dir : (unit, error) result =
    match Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io (dir ^ ": " ^ Unix.error_message e))
    | fd -> (
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      match Unix.fsync fd with
      | () | (exception Unix.Unix_error (EINVAL, _, _)) -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
        Error (Io (dir ^ ": fsync: " ^ Unix.error_message e)))

  (** Atomically persist [snap] as [dir]'s snapshot for its server: the
      bytes land in a temp file first and replace the previous snapshot
      only via [rename], so every crash leaves a complete snapshot (old
      or new) on disk, never a torn one. The directory is fsynced after
      the rename, so once this returns [Ok] the new snapshot survives a
      power loss and the journal it absorbed may be truncated. *)
  let save ~key ~dir (snap : snapshot) : (unit, error) result =
    let file = path ~dir ~server_id:snap.server_id in
    let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
    match write_file tmp (to_bytes ~key snap) with
    | Error _ as e ->
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      e
    | Ok () -> (
      match Unix.rename tmp file with
      | () -> fsync_dir dir
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.unlink tmp with Unix.Unix_error _ -> ());
        Error (Io (file ^ ": rename: " ^ Unix.error_message e)))

  let read_file file : (Bytes.t, error) result =
    match Unix.openfile file [ O_RDONLY; O_CLOEXEC ] 0 with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io (file ^ ": " ^ Unix.error_message e))
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match
            let size = (Unix.fstat fd).st_size in
            let b = Bytes.create size in
            let rec pull off =
              if off >= size then Some b
              else
                match Unix.read fd b off (size - off) with
                | 0 -> None (* file shrank underneath us *)
                | r -> pull (off + r)
            in
            pull 0
          with
          | Some b -> Ok b
          | None -> Error (Io (file ^ ": short read"))
          | exception Unix.Unix_error (e, _, _) ->
            Error (Io (file ^ ": " ^ Unix.error_message e)))

  (** Load and validate the latest snapshot for [server_id]. A snapshot
      naming a different server id is a {!Malformed} mix-up even when
      authentic under [key] (belt and braces: {!derive_key} already
      separates per-server keys). *)
  let load ?min_epoch ~key ~dir ~server_id () :
      (snapshot, error) result =
    match read_file (path ~dir ~server_id) with
    | Error _ as e -> e
    | Ok b -> (
      match of_bytes ?min_epoch ~key b with
      | Error _ as e -> e
      | Ok snap when snap.server_id <> server_id ->
        Error (Malformed "snapshot names a different server")
      | Ok snap -> Ok snap)

  (* --------------------------- decision journal ---------------------- *)

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

  type journal = {
    jr_fd : Unix.file_descr;
    jr_key : Bytes.t;
    jr_file : string;
    mutable jr_tag : Bytes.t;  (** chain head = tag of the last record *)
    mutable jr_closed : bool;
  }

  (* seq ‖ client ‖ verdict ‖ epoch ‖ nshare *)
  let record_fixed_len = 4 + 4 + 1 + 4 + 4

  (* Sanity cap on a record's share count: real entries hold one truncated
     accumulator row, so anything past this is garbage from a torn write. *)
  let max_journal_share = 1 lsl 20

  let genesis_tag key = Hmac.sha256 ~key (Bytes.of_string "prio-journal-genesis")

  let journal_record_bytes (e : journal_entry) : Bytes.t =
    let share = W.vector_to_bytes e.j_share in
    let b = Bytes.create (record_fixed_len + Bytes.length share) in
    put_u32 b 0 e.j_seq;
    put_u32 b 4 e.j_client;
    Bytes.set b 8 (if e.j_accepted then 'a' else 'r');
    put_u32 b 9 e.j_epoch;
    put_u32 b 13 (Array.length e.j_share);
    Bytes.blit share 0 b record_fixed_len (Bytes.length share);
    b

  let chain_tag ~key ~prev record = Hmac.sha256 ~key (Bytes.cat prev record)

  let wrap_io file f =
    match f () with
    | v -> Ok v
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io (file ^ ": " ^ Unix.error_message e))
    | exception Sys_error what -> Error (Io what)

  (** Open (creating if absent) [server_id]'s decision journal under
      [dir], verify the HMAC chain, and return the surviving entries in
      append order plus a handle positioned for appending. A torn tail —
      the crash-mid-append case — is truncated away; a chain break that is
      {e not} at the tail is tampering and fails with [Bad_hmac]. *)
  let journal_open ~key ~dir ~server_id () :
      (journal_entry list * journal, error) result =
    let file = journal_path ~dir ~server_id in
    match
      wrap_io file (fun () ->
          Unix.openfile file [ O_RDWR; O_CREAT; O_CLOEXEC ] 0o600)
    with
    | Error _ as e -> e
    | Ok fd -> (
      let fail err =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error err
      in
      match wrap_io file (fun () -> (Unix.fstat fd).st_size) with
      | Error e -> fail e
      | Ok 0 -> (
        (* fresh journal: stamp the header *)
        let hdr = Bytes.create journal_header_len in
        Bytes.blit_string journal_magic 0 hdr 0 4;
        Bytes.set hdr 4 (Char.chr journal_version);
        put_u32 hdr 5 server_id;
        match
          wrap_io file (fun () ->
              let rec push off len =
                if len > 0 then begin
                  let w = Unix.write fd hdr off len in
                  push (off + w) (len - w)
                end
              in
              push 0 journal_header_len;
              Unix.fsync fd)
        with
        | Error e -> fail e
        | Ok () ->
          Ok
            ( [],
              {
                jr_fd = fd;
                jr_key = key;
                jr_file = file;
                jr_tag = genesis_tag key;
                jr_closed = false;
              } ))
      | Ok size when size < journal_header_len -> fail Truncated
      | Ok size -> (
        match
          wrap_io file (fun () ->
              ignore (Unix.lseek fd 0 SEEK_SET);
              let b = Bytes.create size in
              let rec pull off =
                if off >= size then Some b
                else
                  match Unix.read fd b off (size - off) with
                  | 0 -> None (* file shrank underneath us *)
                  | r -> pull (off + r)
              in
              pull 0)
        with
        | Error e -> fail e
        | Ok None -> fail (Io (file ^ ": short read"))
        | Ok (Some b) ->
          if Bytes.sub_string b 0 4 <> journal_magic then fail Bad_magic
          else if Char.code (Bytes.get b 4) <> journal_version then
            fail (Bad_version (Char.code (Bytes.get b 4)))
          else if get_u32 b 5 <> server_id then
            fail (Malformed "journal names a different server")
          else begin
            (* walk the chain; [Ok (entries, tail, tag)] keeps the byte
               offset the good prefix ends at so a torn tail truncates *)
            let rec walk entries off prev_tag =
              if size - off < record_fixed_len + tag_len then
                Ok (entries, off, prev_tag)
              else
                let nshare = get_u32 b (off + 13) in
                let needed =
                  record_fixed_len + (nshare * F.bytes_len) + tag_len
                in
                if nshare > max_journal_share || size - off < needed then
                  Ok (entries, off, prev_tag)
                else
                  let body_len = needed - tag_len in
                  let record = Bytes.sub b off body_len in
                  let tag = Bytes.sub b (off + body_len) tag_len in
                  if
                    not
                      (Hmac.verify ~key ~tag (Bytes.cat prev_tag record))
                  then
                    if off + needed = size then
                      (* torn tail that still parses: drop it *)
                      Ok (entries, off, prev_tag)
                    else Error Bad_hmac
                  else
                    match
                      W.vector_of_bytes
                        (Bytes.sub b (off + record_fixed_len)
                           (nshare * F.bytes_len))
                    with
                    | exception Invalid_argument what ->
                      Error (Malformed what)
                    | j_share ->
                      let entry =
                        {
                          j_seq = get_u32 b off;
                          j_client = get_u32 b (off + 4);
                          j_accepted = Bytes.get b (off + 8) = 'a';
                          j_epoch = get_u32 b (off + 9);
                          j_share;
                        }
                      in
                      walk (entry :: entries) (off + needed) tag
            in
            match walk [] journal_header_len (genesis_tag key) with
            | Error e -> fail e
            | Ok (entries, tail, tag) -> (
              match
                wrap_io file (fun () ->
                    if tail < size then begin
                      Unix.ftruncate fd tail;
                      Unix.fsync fd
                    end;
                    ignore (Unix.lseek fd tail SEEK_SET))
              with
              | Error e -> fail e
              | Ok () ->
                Ok
                  ( List.rev entries,
                    {
                      jr_fd = fd;
                      jr_key = key;
                      jr_file = file;
                      jr_tag = tag;
                      jr_closed = false;
                    } ))
          end))

  (** Append one decision record and extend the HMAC chain. With [fsync]
      (the default) the record is on stable storage before this returns —
      the write-ahead property the commit ack depends on. *)
  let journal_append ?(fsync = true) (j : journal) (e : journal_entry) :
      (unit, error) result =
    if j.jr_closed then Error (Io (j.jr_file ^ ": journal closed"))
    else begin
      let record = journal_record_bytes e in
      let tag = chain_tag ~key:j.jr_key ~prev:j.jr_tag record in
      let out = Bytes.cat record tag in
      match
        wrap_io j.jr_file (fun () ->
            let len = Bytes.length out in
            let rec push off rem =
              if rem > 0 then begin
                let w = Unix.write j.jr_fd out off rem in
                push (off + w) (rem - w)
              end
            in
            push 0 len;
            if fsync then Unix.fsync j.jr_fd)
      with
      | Error _ as err -> err
      | Ok () ->
        j.jr_tag <- tag;
        Ok ()
    end

  (** Drop every record — called once a snapshot has absorbed them. The
      chain restarts from the genesis tag. *)
  let journal_truncate (j : journal) : (unit, error) result =
    if j.jr_closed then Error (Io (j.jr_file ^ ": journal closed"))
    else
      match
        wrap_io j.jr_file (fun () ->
            Unix.ftruncate j.jr_fd journal_header_len;
            ignore (Unix.lseek j.jr_fd journal_header_len SEEK_SET);
            Unix.fsync j.jr_fd)
      with
      | Error _ as err -> err
      | Ok () ->
        j.jr_tag <- genesis_tag j.jr_key;
        Ok ()

  let journal_close (j : journal) =
    if not j.jr_closed then begin
      j.jr_closed <- true;
      try Unix.close j.jr_fd with Unix.Unix_error _ -> ()
    end
end

(* Checkpoint robustness: round-trip property tests plus rejection of
   truncated, bit-flipped, HMAC-mismatched, stale-epoch, and internally
   inconsistent snapshots; atomic save/load semantics including a
   crashed-writer (leftover temp file) drill; and Server capture/apply/
   rotate_epoch state machines. *)

module Rng = Prio_crypto.Rng
module Hmac = Prio_crypto.Hmac
module F = Prio_field.F87
module Ck = Prio_proto.Checkpoint
module CkF = Prio_proto.Checkpoint.Make (F)
module Srv = Prio_proto.Server.Make (F)

let rng = Rng.of_string_seed "checkpoint-tests"
let master = Rng.bytes rng 32
let key = Ck.derive_key ~master ~server_id:1

let snapshot ?(server_id = 1) ?(epoch = 3) ?(accepted = 42) ?(width = 5)
    ?(journal_seq = 0) () : CkF.snapshot =
  {
    CkF.server_id;
    epoch;
    accepted;
    decided_in_epoch = 7;
    journal_seq;
    replay_digest = Rng.bytes rng 32;
    accumulator = Array.init width (fun _ -> F.random rng);
  }

let check_error what expected = function
  | Ok _ -> Alcotest.failf "%s: decoded a snapshot it should reject" what
  | Error e ->
    Alcotest.(check string) what expected (Ck.string_of_error e |> fun s ->
      (* compare only the variant head so details can evolve *)
      match String.index_opt s ':' with
      | Some i when expected <> s -> String.sub s 0 i
      | _ -> s)

(* ------------------------------ codec ------------------------------- *)

let test_roundtrip () =
  for _ = 1 to 50 do
    let snap =
      snapshot
        ~server_id:(Rng.int_below rng 8)
        ~epoch:(Rng.int_below rng 1000)
        ~accepted:(Rng.int_below rng 1_000_000)
        ~width:(1 + Rng.int_below rng 12)
        ~journal_seq:(Rng.int_below rng 10_000)
        ()
    in
    let k = Ck.derive_key ~master ~server_id:snap.CkF.server_id in
    match CkF.of_bytes ~key:k (CkF.to_bytes ~key:k snap) with
    | Error e -> Alcotest.failf "roundtrip: %s" (Ck.string_of_error e)
    | Ok got ->
      Alcotest.(check int) "server_id" snap.CkF.server_id got.CkF.server_id;
      Alcotest.(check int) "epoch" snap.CkF.epoch got.CkF.epoch;
      Alcotest.(check int) "accepted" snap.CkF.accepted got.CkF.accepted;
      Alcotest.(check int) "decided" snap.CkF.decided_in_epoch
        got.CkF.decided_in_epoch;
      Alcotest.(check int) "journal_seq" snap.CkF.journal_seq
        got.CkF.journal_seq;
      Alcotest.(check bool) "digest" true
        (Bytes.equal snap.CkF.replay_digest got.CkF.replay_digest);
      Alcotest.(check bool) "accumulator" true
        (Array.for_all2 F.equal snap.CkF.accumulator got.CkF.accumulator)
  done

let qcheck_roundtrip =
  QCheck.Test.make ~name:"checkpoint roundtrip preserves counters"
    ~count:100
    QCheck.(triple (int_bound 500) (int_bound 100_000) (int_bound 10))
    (fun (epoch, accepted, w) ->
      let snap = snapshot ~epoch ~accepted ~width:(w + 1) () in
      match CkF.of_bytes ~key (CkF.to_bytes ~key snap) with
      | Ok got ->
        got.CkF.epoch = epoch && got.CkF.accepted = accepted
        && Array.length got.CkF.accumulator = w + 1
      | Error _ -> false)

let test_truncated () =
  let b = CkF.to_bytes ~key (snapshot ()) in
  let n = Bytes.length b in
  for len = 0 to n - 1 do
    match CkF.of_bytes ~key (Bytes.sub b 0 len) with
    | Ok _ -> Alcotest.failf "accepted a %d/%d-byte prefix" len n
    | Error (Ck.Truncated | Ck.Bad_hmac | Ck.Malformed _) -> ()
    | Error e ->
      Alcotest.failf "prefix %d: unexpected %s" len (Ck.string_of_error e)
  done;
  (* prefixes shorter than the fixed header must be Truncated exactly *)
  check_error "tiny prefix" "truncated snapshot"
    (CkF.of_bytes ~key (Bytes.sub b 0 10))

let test_bitflip () =
  let b = CkF.to_bytes ~key (snapshot ()) in
  for i = 0 to Bytes.length b - 1 do
    let mauled = Bytes.copy b in
    Bytes.set mauled i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    match CkF.of_bytes ~key mauled with
    | Ok _ -> Alcotest.failf "accepted a snapshot with byte %d flipped" i
    | Error (Ck.Bad_magic | Ck.Bad_version _ | Ck.Bad_hmac) -> ()
    | Error e ->
      Alcotest.failf "byte %d: unexpected %s" i (Ck.string_of_error e)
  done

let test_wrong_key () =
  let b = CkF.to_bytes ~key (snapshot ()) in
  (* another server's key, and another deployment's master *)
  check_error "other server" "authentication failed"
    (CkF.of_bytes ~key:(Ck.derive_key ~master ~server_id:2) b);
  let other_master = Rng.bytes rng 32 in
  check_error "other master" "authentication failed"
    (CkF.of_bytes ~key:(Ck.derive_key ~master:other_master ~server_id:1) b)

let test_stale_epoch () =
  let b = CkF.to_bytes ~key (snapshot ~epoch:3 ()) in
  (match CkF.of_bytes ~min_epoch:5 ~key b with
  | Error (Ck.Stale_epoch { snapshot = 3; floor = 5 }) -> ()
  | Error e -> Alcotest.failf "unexpected %s" (Ck.string_of_error e)
  | Ok _ -> Alcotest.fail "accepted a stale snapshot");
  (* the floor is inclusive: a snapshot at exactly min_epoch loads *)
  Alcotest.(check bool) "at floor" true
    (Result.is_ok (CkF.of_bytes ~min_epoch:3 ~key b))

let test_authentic_but_malformed () =
  (* forge (we hold the key) a snapshot whose declared accumulator length
     disagrees with the payload: authenticate-then-parse must still land
     on Malformed, never on an exception or a bogus snapshot *)
  let b = CkF.to_bytes ~key (snapshot ~width:5 ()) in
  let body = Bytes.sub b 0 (Bytes.length b - 32) in
  let off = 4 + 1 + 20 + 32 in
  (* acc_elements field *)
  Bytes.set body (off + 3) (Char.chr 6);
  let reforged = Bytes.cat body (Hmac.sha256 ~key body) in
  match CkF.of_bytes ~key reforged with
  | Error (Ck.Malformed _) -> ()
  | Error e -> Alcotest.failf "unexpected %s" (Ck.string_of_error e)
  | Ok _ -> Alcotest.fail "accepted an inconsistent snapshot"

(* ------------------------------ files ------------------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prio-ckpt-test-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_save_load () =
  with_temp_dir @@ fun dir ->
  let snap = snapshot ~epoch:1 ~accepted:10 () in
  (match CkF.save ~key ~dir snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Ck.string_of_error e));
  (* overwrite with a newer snapshot: load returns the latest *)
  let newer = { snap with CkF.epoch = 2; accepted = 20 } in
  (match CkF.save ~key ~dir newer with
  | Ok () -> ()
  | Error e -> Alcotest.failf "re-save: %s" (Ck.string_of_error e));
  (match CkF.load ~key ~dir ~server_id:1 () with
  | Ok got ->
    Alcotest.(check int) "latest epoch" 2 got.CkF.epoch;
    Alcotest.(check int) "latest accepted" 20 got.CkF.accepted
  | Error e -> Alcotest.failf "load: %s" (Ck.string_of_error e));
  (* missing server: Io, not an exception *)
  match CkF.load ~key ~dir ~server_id:9 () with
  | Error (Ck.Io _) -> ()
  | Error e -> Alcotest.failf "unexpected %s" (Ck.string_of_error e)
  | Ok _ -> Alcotest.fail "loaded a snapshot that was never saved"

let test_crashed_writer_leftover () =
  (* a writer that died mid-write leaves a partial temp file; the rename
     never happened, so the previous snapshot must load untouched *)
  with_temp_dir @@ fun dir ->
  let snap = snapshot ~epoch:7 ~accepted:70 () in
  (match CkF.save ~key ~dir snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Ck.string_of_error e));
  let file = Ck.path ~dir ~server_id:1 in
  let tmp = file ^ ".tmp.99999" in
  let oc = open_out_bin tmp in
  output_string oc "PRCK\001partial-write-cut-";
  close_out oc;
  (match CkF.load ~key ~dir ~server_id:1 () with
  | Ok got -> Alcotest.(check int) "old snapshot intact" 7 got.CkF.epoch
  | Error e -> Alcotest.failf "load: %s" (Ck.string_of_error e));
  (* and a fresh save still replaces the snapshot atomically *)
  (match CkF.save ~key ~dir { snap with CkF.epoch = 8 } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save after crash: %s" (Ck.string_of_error e));
  match CkF.load ~key ~dir ~server_id:1 () with
  | Ok got -> Alcotest.(check int) "replaced" 8 got.CkF.epoch
  | Error e -> Alcotest.failf "reload: %s" (Ck.string_of_error e)

let test_corrupted_file_on_disk () =
  with_temp_dir @@ fun dir ->
  (match CkF.save ~key ~dir (snapshot ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Ck.string_of_error e));
  let file = Ck.path ~dir ~server_id:1 in
  (* truncate the real snapshot on disk *)
  let b = In_channel.with_open_bin file In_channel.input_all in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (String.sub b 0 (String.length b / 2)));
  match CkF.load ~key ~dir ~server_id:1 () with
  | Error (Ck.Bad_hmac | Ck.Truncated | Ck.Malformed _) -> ()
  | Error e -> Alcotest.failf "unexpected %s" (Ck.string_of_error e)
  | Ok _ -> Alcotest.fail "loaded a corrupted snapshot"

(* ---------------------------- decision journal ------------------------ *)

let jkey = Ck.derive_journal_key ~master ~server_id:1

let entry ?(seq = 1) ?(client = 100) ?(accepted = true) ?(epoch = 0)
    ?(width = 3) () : CkF.journal_entry =
  {
    CkF.j_seq = seq;
    j_client = client;
    j_accepted = accepted;
    j_epoch = epoch;
    j_share =
      (if accepted then Array.init width (fun _ -> F.random rng) else [||]);
  }

let open_exn ~key ~dir ~server_id () =
  match CkF.journal_open ~key ~dir ~server_id () with
  | Ok r -> r
  | Error e -> Alcotest.failf "journal_open: %s" (Ck.string_of_error e)

let append_exn j e =
  match CkF.journal_append j e with
  | Ok () -> ()
  | Error e -> Alcotest.failf "journal_append: %s" (Ck.string_of_error e)

let test_journal_roundtrip () =
  with_temp_dir @@ fun dir ->
  let entries, j = open_exn ~key:jkey ~dir ~server_id:1 () in
  Alcotest.(check int) "fresh journal empty" 0 (List.length entries);
  let e1 = entry ~seq:1 ~client:7 ~accepted:true () in
  let e2 = entry ~seq:2 ~client:9 ~accepted:false () in
  let e3 = entry ~seq:3 ~client:11 ~accepted:true ~epoch:1 () in
  List.iter (append_exn j) [ e1; e2; e3 ];
  CkF.journal_close j;
  let entries, j = open_exn ~key:jkey ~dir ~server_id:1 () in
  CkF.journal_close j;
  Alcotest.(check int) "entries survive reopen" 3 (List.length entries);
  List.iter2
    (fun (want : CkF.journal_entry) (got : CkF.journal_entry) ->
      Alcotest.(check int) "seq" want.CkF.j_seq got.CkF.j_seq;
      Alcotest.(check int) "client" want.CkF.j_client got.CkF.j_client;
      Alcotest.(check bool) "verdict" want.CkF.j_accepted got.CkF.j_accepted;
      Alcotest.(check int) "epoch" want.CkF.j_epoch got.CkF.j_epoch;
      Alcotest.(check bool) "share" true
        (Array.for_all2 F.equal want.CkF.j_share got.CkF.j_share))
    [ e1; e2; e3 ] entries

let journal_bytes dir =
  In_channel.with_open_bin
    (Ck.journal_path ~dir ~server_id:1)
    In_channel.input_all

let write_journal dir s =
  Out_channel.with_open_bin
    (Ck.journal_path ~dir ~server_id:1)
    (fun oc -> Out_channel.output_string oc s)

let test_journal_torn_tail () =
  (* a crash mid-append leaves a partial trailing record; recovery keeps
     the intact prefix and drops the torn tail silently *)
  with_temp_dir @@ fun dir ->
  let _, j = open_exn ~key:jkey ~dir ~server_id:1 () in
  append_exn j (entry ~seq:1 ());
  append_exn j (entry ~seq:2 ~client:200 ());
  CkF.journal_close j;
  let whole = journal_bytes dir in
  for cut = 1 to 40 do
    write_journal dir (String.sub whole 0 (String.length whole - cut));
    let entries, j = open_exn ~key:jkey ~dir ~server_id:1 () in
    Alcotest.(check int)
      (Printf.sprintf "cut %d: prefix survives" cut)
      1 (List.length entries);
    (* and the journal is appendable again after the repair *)
    append_exn j (entry ~seq:2 ~client:300 ());
    CkF.journal_close j
  done

let test_journal_tamper () =
  (* a chain break before the tail is tampering, not a torn write *)
  with_temp_dir @@ fun dir ->
  let _, j = open_exn ~key:jkey ~dir ~server_id:1 () in
  append_exn j (entry ~seq:1 ());
  append_exn j (entry ~seq:2 ~client:200 ());
  CkF.journal_close j;
  let whole = journal_bytes dir in
  (* flip one byte inside the first record's body (just past the file
     header) — the second, intact record proves the break is not a tail *)
  let mauled = Bytes.of_string whole in
  Bytes.set mauled 12 (Char.chr (Char.code (Bytes.get mauled 12) lxor 0x20));
  write_journal dir (Bytes.to_string mauled);
  (match CkF.journal_open ~key:jkey ~dir ~server_id:1 () with
  | Error Ck.Bad_hmac -> ()
  | Error e -> Alcotest.failf "unexpected %s" (Ck.string_of_error e)
  | Ok (_, j) ->
    CkF.journal_close j;
    Alcotest.fail "opened a tampered journal");
  (* a flipped bit anywhere in the first record's fixed fields of five —
     its share count included, which can make an intact record look torn
     by overrunning the file or the cap — is tampering: refused, with the
     file left as it was *)
  write_journal dir "";
  let _, j = open_exn ~key:jkey ~dir ~server_id:1 () in
  for seq = 1 to 5 do
    append_exn j (entry ~seq ~client:(100 * seq) ~accepted:(seq <> 3) ())
  done;
  CkF.journal_close j;
  let five = journal_bytes dir in
  for i = 0 to 16 do
    List.iter
      (fun mask ->
        let what = Printf.sprintf "record byte %d ^ 0x%02x" i mask in
        let b = Bytes.of_string five in
        (* past the 9-byte file header *)
        Bytes.set b (9 + i) (Char.chr (Char.code (Bytes.get b (9 + i)) lxor mask));
        let mauled = Bytes.to_string b in
        write_journal dir mauled;
        (match CkF.journal_open ~key:jkey ~dir ~server_id:1 () with
        | Error Ck.Bad_hmac -> ()
        | Error e -> Alcotest.failf "%s: unexpected %s" what (Ck.string_of_error e)
        | Ok (entries, j) ->
          CkF.journal_close j;
          Alcotest.failf "%s: opened with %d entries" what (List.length entries));
        Alcotest.(check bool) (what ^ ": file untouched") true
          (String.equal mauled (journal_bytes dir)))
      [ 0x01; 0x80 ]
  done;
  (* the last record has no later record to vouch for it: a flipped bit
     in it is still corruption, not a torn tail, so the acknowledged
     record is not truncated away *)
  let b = Bytes.of_string five in
  (* record 5 is an accept of width 3: 17 fixed bytes, an 8-byte head
     MAC, the share and a 24-byte chain tag *)
  let last = String.length five - (17 + 8 + (3 * F.bytes_len) + 24) in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
  let mauled = Bytes.to_string b in
  write_journal dir mauled;
  (match CkF.journal_open ~key:jkey ~dir ~server_id:1 () with
  | Error Ck.Bad_hmac -> ()
  | Error e -> Alcotest.failf "last record: unexpected %s" (Ck.string_of_error e)
  | Ok (entries, j) ->
    CkF.journal_close j;
    Alcotest.failf "last record: opened with %d entries" (List.length entries));
  Alcotest.(check bool) "last record: file untouched" true
    (String.equal mauled (journal_bytes dir));
  (* wrong key (another deployment) fails the same way *)
  write_journal dir whole;
  let other = Ck.derive_journal_key ~master:(Rng.bytes rng 32) ~server_id:1 in
  match CkF.journal_open ~key:other ~dir ~server_id:1 () with
  | Error Ck.Bad_hmac -> ()
  | Error e -> Alcotest.failf "wrong key: unexpected %s" (Ck.string_of_error e)
  | Ok (_, j) ->
    CkF.journal_close j;
    Alcotest.fail "opened with the wrong key"

let test_journal_truncate () =
  (* a snapshot absorbed the journal: truncation drops every record and
     the chain restarts from genesis *)
  with_temp_dir @@ fun dir ->
  let _, j = open_exn ~key:jkey ~dir ~server_id:1 () in
  append_exn j (entry ~seq:1 ());
  (match CkF.journal_truncate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "truncate: %s" (Ck.string_of_error e));
  append_exn j (entry ~seq:2 ~client:500 ());
  CkF.journal_close j;
  let entries, j = open_exn ~key:jkey ~dir ~server_id:1 () in
  CkF.journal_close j;
  Alcotest.(check int) "only post-truncate records" 1 (List.length entries);
  Alcotest.(check int) "post-truncate client" 500
    (List.hd entries).CkF.j_client

let test_journal_wrong_server () =
  (* a journal naming another server must not replay into this one *)
  with_temp_dir @@ fun dir ->
  let _, j = open_exn ~key:jkey ~dir ~server_id:1 () in
  append_exn j (entry ~seq:1 ());
  CkF.journal_close j;
  Unix.rename
    (Ck.journal_path ~dir ~server_id:1)
    (Ck.journal_path ~dir ~server_id:2);
  match
    CkF.journal_open
      ~key:(Ck.derive_journal_key ~master ~server_id:2)
      ~dir ~server_id:2 ()
  with
  | Error (Ck.Malformed _ | Ck.Bad_hmac) -> ()
  | Error e -> Alcotest.failf "unexpected %s" (Ck.string_of_error e)
  | Ok (_, j) ->
    CkF.journal_close j;
    Alcotest.fail "replayed another server's journal"

(* ------------------------- server state machine ---------------------- *)

let make_server () =
  Srv.create ~id:1 ~num_servers:2 ~master ~trunc_len:3 ~payload_elements:8

let test_capture_apply () =
  let s = make_server () in
  let share = Array.init 8 (fun _ -> F.random rng) in
  Srv.accumulate s share;
  ignore (Srv.record_decision s ~client_id:7 true : bool);
  ignore (Srv.record_decision s ~client_id:9 false : bool);
  let snap = CkF.of_server s in
  Alcotest.(check int) "accepted captured" 1 snap.CkF.accepted;
  Alcotest.(check int) "decided captured" 2 snap.CkF.decided_in_epoch;
  Alcotest.(check int) "journal watermark captured" 2 snap.CkF.journal_seq;
  let fresh = make_server () in
  CkF.apply snap fresh;
  Alcotest.(check bool) "accumulator restored" true
    (Array.for_all2 F.equal s.Srv.accumulator fresh.Srv.accumulator);
  Alcotest.(check int) "accepted restored" 1 fresh.Srv.accepted;
  Alcotest.(check int) "epoch restored" 0 fresh.Srv.epoch;
  Alcotest.(check int) "journal watermark restored" 2
    fresh.Srv.journal_seq;
  (* tables restart empty: only the digest commitment crosses a restore *)
  Alcotest.(check int) "resident reset" 0 (Srv.resident_entries fresh);
  Alcotest.(check bool) "digest carried" true
    (Bytes.equal s.Srv.replay_digest fresh.Srv.replay_digest)

let test_rotate_epoch () =
  let s = make_server () in
  Alcotest.(check bool) "first write wins" true
    (Srv.record_decision s ~client_id:1 true);
  Alcotest.(check bool) "duplicate refused" false
    (Srv.record_decision s ~client_id:1 false);
  (* duplicate: one distinct client *)
  ignore (Srv.record_decision s ~client_id:2 true : bool);
  Alcotest.(check int) "distinct decisions" 2 s.Srv.decided_in_epoch;
  Alcotest.(check int) "journal seq tracks firsts" 2 s.Srv.journal_seq;
  let digest_before = Bytes.copy s.Srv.replay_digest in
  Srv.rotate_epoch s;
  Alcotest.(check int) "epoch bumped" 1 s.Srv.epoch;
  Alcotest.(check int) "counter reset" 0 s.Srv.decided_in_epoch;
  (* two-generation retirement: the closed epoch's decisions stay
     resident (and answerable — the duplicate at client 1 kept the first
     verdict) for one more epoch before being dropped *)
  Alcotest.(check int) "previous generation retained" 2
    (Srv.resident_entries s);
  Alcotest.(check bool) "decision still answerable" true
    (Srv.decision s ~client_id:1 = Some true);
  Alcotest.(check bool) "digest chained" false
    (Bytes.equal digest_before s.Srv.replay_digest);
  Srv.rotate_epoch s;
  Alcotest.(check int) "tables dropped after two rotations" 0
    (Srv.resident_entries s);
  Alcotest.(check bool) "decision forgotten after two rotations" true
    (Srv.decision s ~client_id:1 = None)

let test_apply_width_mismatch () =
  let snap = snapshot ~width:4 () in
  (* server below is trunc_len 3 *)
  match CkF.apply snap (make_server ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "applied a snapshot of the wrong width"

let () =
  Alcotest.run "checkpoint"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "bitflip" `Quick test_bitflip;
          Alcotest.test_case "wrong key" `Quick test_wrong_key;
          Alcotest.test_case "stale epoch" `Quick test_stale_epoch;
          Alcotest.test_case "authentic but malformed" `Quick
            test_authentic_but_malformed;
        ] );
      ( "files",
        [
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "crashed writer leftover" `Quick
            test_crashed_writer_leftover;
          Alcotest.test_case "corrupted on disk" `Quick
            test_corrupted_file_on_disk;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "tamper" `Quick test_journal_tamper;
          Alcotest.test_case "truncate" `Quick test_journal_truncate;
          Alcotest.test_case "wrong server" `Quick test_journal_wrong_server;
        ] );
      ( "server",
        [
          Alcotest.test_case "capture/apply" `Quick test_capture_apply;
          Alcotest.test_case "rotate epoch" `Quick test_rotate_epoch;
          Alcotest.test_case "apply width mismatch" `Quick
            test_apply_width_mismatch;
        ] );
    ]

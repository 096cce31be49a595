(* Integration tests for the TCP deployment: one OS process per server on
   loopback sockets, clients uploading sealed packets over real
   connections, the leader driving SNIP verification over persistent
   server-to-server links.

   Beyond the happy path, this suite is a chaos harness: seeded fault
   injection (drop / corrupt / truncate / slow / crash-server policies)
   on the frame path, a hand-driven leader-degradation scenario (follower
   SIGKILLed mid-verification), malformed-frame fuzzing, and idempotency
   checks for retried submissions. Every fault sequence is a pure
   function of its seed, so a failing run replays exactly. *)

module F = Prio_field.F87
module Net = Prio_proto.Net.Make (F)
module NetT = Prio_proto.Net (* transport-level helpers, shared by all fields *)
module Retry = Prio_proto.Retry
module Faults = Prio_proto.Faults
module Cl = Prio_proto.Client.Make (F)
module Sum = Prio_afe.Sum.Make (F)
module Hist = Prio_afe.Histogram.Make (F)
module A = Prio_afe.Afe.Make (F)
module Rng = Prio_crypto.Rng
module Trace = Prio_obs.Trace

let rng = Rng.of_string_seed "net-tests"

(* Unwrap [collect_aggregate] for tests that expect every server alive. *)
let collect_exn d =
  match Net.collect_aggregate d with
  | Ok v -> v
  | Error (i, e) ->
    Alcotest.failf "collect_aggregate: server %d: %s" i
      (NetT.string_of_protocol_error e)

(* Short deadlines and an aggressive retry schedule: a dropped frame
   costs [io_timeout] of real waiting, so chaos runs stay fast. *)
let fast_tuning =
  NetT.
    {
      default_tuning with
      io_timeout = 0.4;
      dial_timeout = 0.5;
      select_tick = 0.02;
      backoff =
        Retry.
          {
            default_backoff with
            max_attempts = 8;
            base_delay = 0.005;
            max_delay = 0.04;
          };
    }

let with_deployment ?(num_servers = 3) ?(tuning = fast_tuning) ?faults_for afe
    f =
  let cfg =
    Net.
      {
        circuit = afe.A.circuit;
        trunc_len = afe.A.trunc_len;
        num_servers;
        master = Rng.bytes rng 32;
        batch_seed = Rng.bytes rng 32;
      }
  in
  let d = Net.launch ~tuning ?faults_for cfg in
  Fun.protect ~finally:(fun () -> Net.shutdown d) (fun () -> f d)

let with_temp_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prio-net-%s-%d" name (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "io error: %s" (NetT.string_of_protocol_error e)

(* ------------------------- happy-path tests -------------------------- *)

let test_sum_end_to_end () =
  let afe = Sum.sum ~bits:4 in
  with_deployment afe (fun d ->
      List.iteri
        (fun i x ->
          Alcotest.(check bool) "accepted over TCP" true
            (Net.submit d ~rng ~client_id:i (afe.A.encode ~rng x)))
        [ 3; 7; 15; 0; 9 ];
      let total = afe.A.decode ~n:5 (collect_exn d) in
      Alcotest.(check string) "aggregate" "34" (Prio_bigint.Bigint.to_string total))

let test_rejects_cheater () =
  let afe = Sum.sum ~bits:4 in
  with_deployment afe (fun d ->
      Alcotest.(check bool) "honest ok" true
        (Net.submit d ~rng ~client_id:0 (afe.A.encode ~rng 5));
      let bad = afe.A.encode ~rng 3 in
      bad.(0) <- F.of_int 999;
      Alcotest.(check bool) "cheater rejected over TCP" false
        (Net.submit d ~rng ~client_id:1 bad);
      let total = afe.A.decode ~n:1 (collect_exn d) in
      Alcotest.(check string) "aggregate unpolluted" "5"
        (Prio_bigint.Bigint.to_string total))

let test_five_servers_histogram () =
  let afe = Hist.histogram ~buckets:4 in
  with_deployment ~num_servers:5 afe (fun d ->
      List.iteri
        (fun i x ->
          Alcotest.(check bool) "accepted" true
            (Net.submit d ~rng ~client_id:i (afe.A.encode ~rng x)))
        [ 0; 1; 1; 3; 3; 3 ];
      let counts = afe.A.decode ~n:6 (collect_exn d) in
      Alcotest.(check (array int)) "histogram over TCP" [| 1; 2; 0; 3 |] counts)

(* --------------------------- chaos harness --------------------------- *)

(* Run a batch of honest submissions with client-side fault injection.
   Liveness: every submission must come back with a definite outcome (no
   hangs — the alias-level wall clock enforces this too, but Unreachable
   here means retries exhausted against a live cluster, which the drop /
   corrupt / truncate / slow policies below are tuned not to do).
   Consistency: the aggregate must equal the sum of exactly the accepted
   values — faulted submissions are rejected, never half-applied. *)
let run_chaos ~seed policy values =
  let afe = Sum.sum ~bits:4 in
  with_deployment afe (fun d ->
      let faults = Faults.create ~seed policy in
      let outcomes =
        List.mapi
          (fun i x ->
            (x, Net.submit_outcome ~faults d ~rng ~client_id:i (afe.A.encode ~rng x)))
          values
      in
      List.iter
        (function
          | _, Net.Unreachable e ->
            Alcotest.failf "submission unreachable under chaos: %s"
              (NetT.string_of_protocol_error e)
          | _ -> ())
        outcomes;
      Alcotest.(check bool) "chaos actually injected faults" true
        (Faults.injected faults > 0);
      let accepted =
        List.filter_map
          (function x, Net.Accepted -> Some x | _ -> None)
          outcomes
      in
      Alcotest.(check bool) "cluster still accepts honest traffic" true
        (accepted <> []);
      let total =
        afe.A.decode ~n:(List.length accepted) (collect_exn d)
      in
      Alcotest.(check string) "aggregate = accepted-only sum"
        (string_of_int (List.fold_left ( + ) 0 accepted))
        (Prio_bigint.Bigint.to_string total);
      outcomes)

let values = [ 3; 7; 15; 0; 9; 4; 12; 1 ]

let test_chaos_drop () =
  (* pure loss: with idempotent resubmission every honest client must
     eventually get through, and nothing is double-counted *)
  let outcomes = run_chaos ~seed:"chaos-drop" (Faults.drop 0.25) values in
  List.iter
    (fun (x, o) ->
      if o <> Net.Accepted then
        Alcotest.failf "submission of %d not accepted despite retries" x)
    outcomes

let test_chaos_corrupt () =
  (* bit flips: damaged packets fail authentication and are cleanly
     rejected; damaged frames are retried (idempotently) *)
  ignore (run_chaos ~seed:"chaos-corrupt" (Faults.corrupt 0.3) values)

let test_chaos_truncate () =
  (* short frames: anything from a clipped seal (auth failure → reject)
     to an empty frame (protocol error → retry) *)
  ignore (run_chaos ~seed:"chaos-truncate" (Faults.truncate 0.3) values)

let test_chaos_slow () =
  (* delays below the io deadline: everything still lands *)
  let outcomes =
    run_chaos ~seed:"chaos-slow" (Faults.slow ~p:0.5 ~delay:0.05) values
  in
  List.iter
    (fun (x, o) ->
      if o <> Net.Accepted then
        Alcotest.failf "submission of %d lost to a slow (not dead) wire" x)
    outcomes

let test_chaos_follower_crash () =
  (* a follower with a seeded crash policy dies mid-batch: submissions
     before the crash land, later ones fail fast and cleanly (no hangs),
     the supervisor reports the corpse, and the leader stays up *)
  let afe = Sum.sum ~bits:4 in
  let faults_for id =
    if id = 2 then Some (Faults.create ~seed:"crash-a" (Faults.crash 0.05))
    else None
  in
  with_deployment ~faults_for afe (fun d ->
      let outcomes =
        List.init 10 (fun i ->
            Net.submit_outcome d ~rng ~client_id:i
              (afe.A.encode ~rng ((i * 3) mod 16)))
      in
      let accepted =
        List.length (List.filter (fun o -> o = Net.Accepted) outcomes)
      in
      Alcotest.(check bool) "some submissions landed before the crash" true
        (accepted >= 1);
      Alcotest.(check bool) "the crash cost some submissions" true
        (accepted < 10);
      (match (Net.poll_servers d).(2) with
      | Net.Exited _ -> ()
      | Net.Running -> Alcotest.fail "supervisor should report follower 2 dead");
      (match (Net.poll_servers d).(0) with
      | Net.Running -> ()
      | Net.Exited _ -> Alcotest.fail "leader must survive a follower crash");
      (* leader still answers queries *)
      let fd = ok_exn (NetT.dial d.Net.addrs.(0)) in
      ignore (NetT.write_frame fd (NetT.tagged 'Q' Bytes.empty));
      let reply = ok_exn (NetT.read_frame ~deadline:(Retry.after 2.0) fd) in
      Unix.close fd;
      Alcotest.(check char) "leader still serving Q" 'A' (Bytes.get reply 0))

(* --------------------- degradation & supervision --------------------- *)

let test_leader_degrades_and_restarts () =
  let afe = Sum.sum ~bits:4 in
  with_deployment afe (fun d ->
      Alcotest.(check bool) "healthy accept" true
        (Net.submit d ~rng ~client_id:0 (afe.A.encode ~rng 5));
      (* hand-deliver client 1's packets so every server holds its share
         *before* the follower dies (a normal client would fail at dial) *)
      let enc = afe.A.encode ~rng 7 in
      let pk =
        Cl.submit ~rng
          ~mode:(Cl.Robust_snip afe.A.circuit)
          ~num_servers:3 ~client_id:1 ~master:d.Net.cfg.Net.master enc
      in
      let exchange addr frame =
        let fd = ok_exn (NetT.dial addr) in
        ignore (NetT.write_frame fd frame);
        let r = ok_exn (NetT.read_frame ~deadline:(Retry.after 5.0) fd) in
        Unix.close fd;
        r
      in
      List.iter
        (fun i ->
          let p =
            NetT.tagged 'P'
              (Bytes.cat (NetT.put_u32 1)
                 (Bytes.cat (NetT.ctx_bytes ()) pk.Cl.sealed.(i)))
          in
          Alcotest.(check char) "P acked" 'K'
            (Bytes.get (exchange d.Net.addrs.(i) p) 0))
        [ 1; 2; 0 ];
      (* kill follower 2 between upload and verification *)
      Unix.kill d.Net.pids.(2) Sys.sigkill;
      Unix.sleepf 0.05;
      (* the leader must answer the verify promptly with a clean refusal
         instead of hanging on the dead gossip link *)
      let reply = exchange d.Net.addrs.(0) (NetT.tagged 'V' (NetT.put_u32 1)) in
      (match Bytes.get reply 0 with
      | 'E' -> (
        match NetT.parse_error_frame reply with
        | Some (NetT.Unavailable, _) -> ()
        | other ->
          Alcotest.failf "expected E/unavailable, got %s"
            (match other with
            | Some (c, _) -> NetT.string_of_error_code c
            | None -> "garbled E frame"))
      | 'R' -> () (* also a clean refusal *)
      | c -> Alcotest.failf "expected clean refusal, got tag %C" c);
      (* ... and the refusal is sticky/idempotent *)
      Alcotest.(check char) "degraded verdict replayed" 'R'
        (Bytes.get (exchange d.Net.addrs.(0) (NetT.tagged 'V' (NetT.put_u32 1))) 0);
      (* supervisor sees the corpse; the leader is alive *)
      (match (Net.poll_servers d).(2) with
      | Net.Exited (Unix.WSIGNALED _) -> ()
      | Net.Exited _ -> ()
      | Net.Running -> Alcotest.fail "supervisor should report follower 2 dead");
      (match (Net.poll_servers d).(0) with
      | Net.Running -> ()
      | Net.Exited _ -> Alcotest.fail "leader must survive degradation");
      (* revive the follower on its original port; new traffic flows *)
      Net.restart_server d 2;
      (match (Net.poll_servers d).(2) with
      | Net.Running -> ()
      | Net.Exited _ -> Alcotest.fail "restarted follower should be running");
      Alcotest.(check bool) "accepts after restart" true
        (Net.submit d ~rng ~client_id:2 (afe.A.encode ~rng 3)))

(* ------------------------ malformed-frame fuzz ----------------------- *)

let test_fuzz_malformed_frames () =
  let afe = Sum.sum ~bits:4 in
  with_deployment afe (fun d ->
      let frng = Rng.of_string_seed "fuzz-frames" in
      (* random bytes at every tag position: the server may answer with
         an ack/error frame, close the connection, or stay silent for
         one-way tags — but must neither crash nor hang *)
      for _ = 1 to 25 do
        let tag = Char.chr (Rng.int_below frng 256) in
        if tag <> 'X' (* a real deployment authenticates shutdown *) then begin
          let body = Rng.bytes frng (Rng.int_below frng 48) in
          let fd = ok_exn (NetT.dial d.Net.addrs.(0)) in
          ignore (NetT.write_frame fd (NetT.tagged tag body));
          (match NetT.read_frame ~deadline:(Retry.after 0.3) fd with
          | Ok _ | Error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
      done;
      (* a tag-less (empty) frame is refused, not a [Bytes.get] crash *)
      let fd = ok_exn (NetT.dial d.Net.addrs.(0)) in
      ignore (NetT.write_frame fd Bytes.empty);
      let reply = ok_exn (NetT.read_frame ~deadline:(Retry.after 2.0) fd) in
      Unix.close fd;
      Alcotest.(check char) "empty frame → E" 'E' (Bytes.get reply 0);
      (* a header announcing a 64 MiB frame is refused before allocation *)
      let fd = ok_exn (NetT.dial d.Net.addrs.(0)) in
      let hdr = NetT.put_u32 (64 * 1024 * 1024) in
      let rec push off =
        if off < 4 then push (off + Unix.write fd hdr off (4 - off))
      in
      push 0;
      let reply = ok_exn (NetT.read_frame ~deadline:(Retry.after 2.0) fd) in
      Unix.close fd;
      (match NetT.parse_error_frame reply with
      | Some (NetT.Too_large, _) -> ()
      | _ -> Alcotest.fail "expected E/too-large for oversize header");
      (* the cluster survived all of it *)
      Alcotest.(check bool) "still serving" true
        (Net.submit d ~rng ~client_id:0 (afe.A.encode ~rng 9));
      let total = afe.A.decode ~n:1 (collect_exn d) in
      Alcotest.(check string) "aggregate intact" "9"
        (Prio_bigint.Bigint.to_string total))

(* ---------------------------- idempotency ---------------------------- *)

let test_idempotent_retries () =
  let afe = Sum.sum ~bits:4 in
  with_deployment afe (fun d ->
      let enc = afe.A.encode ~rng 11 in
      let pk =
        Cl.submit ~rng
          ~mode:(Cl.Robust_snip afe.A.circuit)
          ~num_servers:3 ~client_id:0 ~master:d.Net.cfg.Net.master enc
      in
      let exchange addr frame =
        let fd = ok_exn (NetT.dial addr) in
        ignore (NetT.write_frame fd frame);
        let r = ok_exn (NetT.read_frame ~deadline:(Retry.after 5.0) fd) in
        Unix.close fd;
        r
      in
      let p_frame i =
        NetT.tagged 'P'
          (Bytes.cat (NetT.put_u32 0)
             (Bytes.cat (NetT.ctx_bytes ()) pk.Cl.sealed.(i)))
      in
      (* upload twice to every server: a duplicate of an in-flight
         submission is re-acked, not replay-rejected *)
      List.iter
        (fun i ->
          Alcotest.(check char) "first P ack" 'K'
            (Bytes.get (exchange d.Net.addrs.(i) (p_frame i)) 0);
          Alcotest.(check char) "duplicate P re-ack" 'K'
            (Bytes.get (exchange d.Net.addrs.(i) (p_frame i)) 0))
        [ 1; 2; 0 ];
      (* verify twice: the second verdict replays from the decision cache *)
      let v = NetT.tagged 'V' (NetT.put_u32 0) in
      Alcotest.(check char) "V accepted" 'K' (Bytes.get (exchange d.Net.addrs.(0) v) 0);
      Alcotest.(check char) "duplicate V re-acked" 'K'
        (Bytes.get (exchange d.Net.addrs.(0) v) 0);
      (* a duplicate upload after the decision is also just re-acked *)
      Alcotest.(check char) "post-decision P re-ack" 'K'
        (Bytes.get (exchange d.Net.addrs.(1) (p_frame 1)) 0);
      (* and the value was counted exactly once *)
      let total = afe.A.decode ~n:1 (collect_exn d) in
      Alcotest.(check string) "counted once" "11"
        (Prio_bigint.Bigint.to_string total))

(* ------------------------- admission control ------------------------- *)

let test_admission_busy_shed () =
  let afe = Sum.sum ~bits:4 in
  let tuning = NetT.{ fast_tuning with max_pending = 2 } in
  with_deployment ~tuning afe (fun d ->
      let exchange addr frame =
        let fd = ok_exn (NetT.dial addr) in
        ignore (NetT.write_frame fd frame);
        let r = ok_exn (NetT.read_frame ~deadline:(Retry.after 5.0) fd) in
        Unix.close fd;
        r
      in
      (* fill every server's admission queue without triggering verify *)
      List.iter
        (fun cid ->
          let pk =
            Cl.submit ~rng
              ~mode:(Cl.Robust_snip afe.A.circuit)
              ~num_servers:3 ~client_id:cid ~master:d.Net.cfg.Net.master
              (afe.A.encode ~rng (cid + 1))
          in
          List.iter
            (fun srv ->
              let p =
                NetT.tagged 'P'
                  (Bytes.cat (NetT.put_u32 cid)
                     (Bytes.cat (NetT.ctx_bytes ()) pk.Cl.sealed.(srv)))
              in
              Alcotest.(check char) "queued" 'K'
                (Bytes.get (exchange d.Net.addrs.(srv) p) 0))
            [ 0; 1; 2 ])
        [ 0; 1 ];
      (* the queue is at max_pending: the next upload is shed with a
         retryable refusal, not silently dropped or fatally nacked *)
      let pk3 =
        Cl.submit ~rng
          ~mode:(Cl.Robust_snip afe.A.circuit)
          ~num_servers:3 ~client_id:7 ~master:d.Net.cfg.Net.master
          (afe.A.encode ~rng 5)
      in
      let reply =
        exchange d.Net.addrs.(1)
          (NetT.tagged 'P'
             (Bytes.cat (NetT.put_u32 7)
                (Bytes.cat (NetT.ctx_bytes ()) pk3.Cl.sealed.(1))))
      in
      (match NetT.parse_error_frame reply with
      | Some (NetT.Busy, _) -> ()
      | Some (c, _) ->
        Alcotest.failf "expected E/busy, got %s" (NetT.string_of_error_code c)
      | None ->
        Alcotest.failf "expected E/busy, got tag %C" (Bytes.get reply 0));
      (* the high-level client treats Busy as retryable: against a queue
         that never drains, it backs off and exhausts its schedule *)
      (match Net.submit_outcome d ~rng ~client_id:8 (afe.A.encode ~rng 2) with
      | Net.Unreachable (NetT.Peer_error (NetT.Busy, _)) -> ()
      | Net.Unreachable e ->
        Alcotest.failf "expected busy exhaustion, got %s"
          (NetT.string_of_protocol_error e)
      | Net.Accepted | Net.Rejected _ ->
        Alcotest.fail "submission must not land while the queue is full");
      (* a duplicate of an already-admitted upload is still re-acked even
         at capacity — dedup happens before the shed check *)
      Alcotest.(check char) "duplicate re-acked at capacity" 'K'
        (Bytes.get
           (exchange d.Net.addrs.(1)
              (NetT.tagged 'P'
                 (Bytes.cat (NetT.put_u32 0)
                    (Bytes.cat (NetT.ctx_bytes ())
                       (Cl.submit ~rng
                          ~mode:(Cl.Robust_snip afe.A.circuit)
                          ~num_servers:3 ~client_id:0
                          ~master:d.Net.cfg.Net.master (afe.A.encode ~rng 1))
                         .Cl
                         .sealed.(1)))))
           0)
      |> ignore;
      (* drain the queue by deciding both pending submissions *)
      List.iter
        (fun cid ->
          Alcotest.(check char) "drained" 'K'
            (Bytes.get
               (exchange d.Net.addrs.(0) (NetT.tagged 'V' (NetT.put_u32 cid)))
               0))
        [ 0; 1 ];
      (* with room again, the shed client's retry goes through *)
      Alcotest.(check bool) "recovers after shed" true
        (Net.submit d ~rng ~client_id:9 (afe.A.encode ~rng 6));
      let total = afe.A.decode ~n:3 (collect_exn d) in
      Alcotest.(check string) "aggregate counts admitted only" "9"
        (Prio_bigint.Bigint.to_string total))

(* ----------------------- checkpoint / restore ------------------------ *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let restore_values = [ 3; 7; 15; 0; 9; 4; 12; 1; 6; 10 ]

(* A snapshot every 3 decisions: a crash before submission 7 restores
   from the snapshot taken after decision 6 plus one journal record. *)
let restore_every = 3
let restore_crash = 7

(* Decision-journal size in bytes (docs/PROTOCOL.md §9): a 9-byte header,
   then per record 17 fixed bytes, the share and a 32-byte chain tag. *)
let journal_bytes ~records ~share_len =
  9 + (records * (17 + (share_len * F.bytes_len) + 32))

let file_size path = (Unix.stat path).Unix.st_size

(* One serial run over [restore_values]. With [crash] set, followers 1
   and 2 are SIGKILLed and restarted just before submission
   [restore_crash], so the leader's cached links to both (2 is the last
   slot of its fan-out) are stale. That submission is driven by hand: it
   must be accepted on its first verify, with no [E/W] and no client
   retry. Returns the decoded aggregate, follower 1's journal size, and
   follower 1's scraped metrics. *)
let run_with_restore ~crash dir =
  let afe = Sum.sum ~bits:4 in
  let tuning =
    NetT.
      { fast_tuning with checkpoint_dir = Some dir;
        checkpoint_every = restore_every }
  in
  with_deployment ~tuning afe (fun d ->
      let kill_and_restart i =
        Unix.kill d.Net.pids.(i) Sys.sigkill;
        let rec wait_dead n =
          match (Net.poll_servers d).(i) with
          | Net.Exited _ -> ()
          | Net.Running ->
            if n = 0 then Alcotest.fail "follower ignored SIGKILL";
            Unix.sleepf 0.01;
            wait_dead (n - 1)
        in
        wait_dead 200;
        Net.restart_server d i
      in
      let exchange addr frame =
        let fd = ok_exn (NetT.dial addr) in
        ignore (NetT.write_frame fd frame);
        let r = ok_exn (NetT.read_frame ~deadline:(Retry.after 5.0) fd) in
        Unix.close fd;
        r
      in
      List.iteri
        (fun i x ->
          if crash && i = restore_crash then begin
            kill_and_restart 1;
            kill_and_restart 2;
            let pk =
              Cl.submit ~rng
                ~mode:(Cl.Robust_snip afe.A.circuit)
                ~num_servers:3 ~client_id:i ~master:d.Net.cfg.Net.master
                (afe.A.encode ~rng x)
            in
            List.iter
              (fun srv ->
                Alcotest.(check char) "P acked" 'K'
                  (Bytes.get
                     (exchange d.Net.addrs.(srv)
                        (NetT.tagged 'P'
                           (Bytes.cat (NetT.put_u32 i)
                              (Bytes.cat (NetT.ctx_bytes ()) pk.Cl.sealed.(srv)))))
                     0))
              [ 1; 2; 0 ];
            let reply =
              exchange d.Net.addrs.(0) (NetT.tagged 'V' (NetT.put_u32 i))
            in
            match NetT.parse_error_frame reply with
            | Some (c, detail) ->
              Alcotest.failf "first verify after restarts: E/%s %s"
                (NetT.string_of_error_code c) detail
            | None ->
              Alcotest.(check char) "accepted on the first verify" 'K'
                (Bytes.get reply 0)
          end
          else
            Alcotest.(check bool)
              (Printf.sprintf "accepted %d" i)
              true
              (Net.submit d ~rng ~client_id:i (afe.A.encode ~rng x)))
        restore_values;
      let journal =
        file_size (Prio_proto.Checkpoint.journal_path ~dir ~server_id:1)
      in
      let metrics = ok_exn (NetT.scrape_metrics ~tuning d.Net.addrs.(1)) in
      ( afe.A.decode ~n:(List.length restore_values) (collect_exn d),
        journal,
        metrics ))

let test_restore_equals_uninterrupted () =
  let expected = string_of_int (List.fold_left ( + ) 0 restore_values) in
  (* the journal holds only the decisions since the last snapshot, each
     with the truncated share alone *)
  let journal_expected =
    journal_bytes
      ~records:(List.length restore_values mod restore_every)
      ~share_len:(Sum.sum ~bits:4).A.trunc_len
  in
  with_temp_dir "baseline" @@ fun dir_a ->
  with_temp_dir "crashed" @@ fun dir_b ->
  let a, journal_a, _ = run_with_restore ~crash:false dir_a in
  Alcotest.(check string) "uninterrupted total" expected
    (Prio_bigint.Bigint.to_string a);
  Alcotest.(check int) "journal = header + truncated-share records"
    journal_expected journal_a;
  (* same submissions, but the followers die after 7 decisions and
     resume from a snapshot plus a journal suffix: nothing accepted
     before the crash may be lost, nothing may be double-counted *)
  let b, journal_b, metrics_b = run_with_restore ~crash:true dir_b in
  Alcotest.(check string) "crash+restore equals uninterrupted" expected
    (Prio_bigint.Bigint.to_string b);
  Alcotest.(check bool) "restore replayed one journal record" true
    (contains ~affix:"prio_journal_replayed_total 1\n" metrics_b);
  (* the replayed record counts toward the next snapshot, so the
     journal is as short as in the uninterrupted run *)
  Alcotest.(check int) "replay bound kept across the restart"
    journal_expected journal_b

let test_restore_chaos_drill () =
  (* seeded crash policy on a follower with checkpointing on: every time
     the follower dies mid-stream the supervisor restores it from its
     latest snapshot and the failed value is resubmitted under a fresh
     client id. Consistency: the final aggregate must equal the sum of
     exactly the accepted values — snapshots may lag (torn writes are
     prevented by temp+rename), but nothing decided-and-checkpointed is
     lost and nothing is double-counted. *)
  let afe = Sum.sum ~bits:4 in
  with_temp_dir "chaos" @@ fun dir ->
  let tuning = NetT.{ fast_tuning with checkpoint_dir = Some dir } in
  let faults_for id =
    if id = 2 then
      Some (Faults.create ~seed:"restore-drill" (Faults.crash 0.03))
    else None
  in
  with_deployment ~tuning ~faults_for afe (fun d ->
      let restarts = ref 0 in
      let revive () =
        Array.iteri
          (fun i st ->
            match st with
            | Net.Exited _ ->
              incr restarts;
              Net.restart_server d i
            | Net.Running -> ())
          (Net.poll_servers d)
      in
      let landed = ref 0 and total = ref 0 in
      List.iteri
        (fun i x ->
          let rec attempt tries cid =
            match Net.submit_outcome d ~rng ~client_id:cid (afe.A.encode ~rng x) with
            | Net.Accepted ->
              incr landed;
              total := !total + x
            | (Net.Rejected _ | Net.Unreachable _) when tries < 5 ->
              (* a crashed follower shows up as a degraded rejection or
                 exhausted retries; restore it and resubmit fresh *)
              revive ();
              attempt (tries + 1) (cid + 1000)
            | Net.Rejected why ->
              Alcotest.failf "value %d never landed: rejected: %s" x why
            | Net.Unreachable e ->
              Alcotest.failf "value %d never landed: %s" x
                (NetT.string_of_protocol_error e)
          in
          attempt 0 i)
        (List.init 16 (fun i -> (i * 5) mod 16));
      revive ();
      Alcotest.(check bool) "the drill actually crashed a server" true
        (!restarts > 0);
      Alcotest.(check int) "every value eventually landed" 16 !landed;
      let sigma = afe.A.decode ~n:!landed (collect_exn d) in
      Alcotest.(check string) "aggregate = accepted sum across restores"
        (string_of_int !total)
        (Prio_bigint.Bigint.to_string sigma))

let test_commit_window_chaos_drill () =
  (* The decision-broadcast durability hole, aimed at exactly: a follower
     dies on receipt of the leader's [a] frame — after the verdict, before
     journaling or acking it. With the two-phase commit the leader
     withholds the client ack ([Commit_pending]), the client resubmits,
     and the repair re-broadcast lands the decision on the restored
     follower; aggregate and accept counts must match a no-fault run.
     Under a fire-and-forget broadcast this drill fails: the leader acks
     immediately, the crashed follower forgets the share forever, and the
     aggregate comes up short. *)
  let afe = Sum.sum ~bits:4 in
  let values = [ 3; 7; 12; 5; 9 ] in
  let run_reference () =
    with_temp_dir "commit-ref" @@ fun dir ->
    let tuning = NetT.{ fast_tuning with checkpoint_dir = Some dir } in
    with_deployment ~tuning afe (fun d ->
        let accepted = ref 0 in
        List.iteri
          (fun i x ->
            match
              Net.submit_outcome d ~rng ~client_id:i (afe.A.encode ~rng x)
            with
            | Net.Accepted -> incr accepted
            | Net.Rejected why ->
              Alcotest.failf "reference run rejected %d: %s" x why
            | Net.Unreachable e ->
              Alcotest.failf "reference run unreachable for %d: %s" x
                (NetT.string_of_protocol_error e))
          values;
        ( !accepted,
          Prio_bigint.Bigint.to_string
            (afe.A.decode ~n:!accepted (collect_exn d)) ))
  in
  let ref_accepted, ref_total = run_reference () in
  with_temp_dir "commit-drill" @@ fun dir ->
  let tuning = NetT.{ fast_tuning with checkpoint_dir = Some dir } in
  (* one-shot targeted fault: follower 2 dies on its first [a] frame.
     [faults_for] is evaluated inside each forked server, so the disarm
     flag must live on the shared filesystem — a ref mutated in the
     child would leave the parent re-arming the crash on restart *)
  let armed = Filename.concat dir "fault-armed" in
  close_out (open_out armed);
  let faults_for id =
    if id = 2 && Sys.file_exists armed then begin
      (try Sys.remove armed with Sys_error _ -> ());
      Some (Faults.create ~seed:"commit-window" (Faults.crash_on ~tags:"a" 1.0))
    end
    else None
  in
  with_deployment ~tuning ~faults_for afe (fun d ->
      let commit_crashes = ref 0 and accepted = ref 0 in
      let revive () =
        Array.iteri
          (fun i st ->
            match st with
            | Net.Exited (Unix.WEXITED 70) ->
              incr commit_crashes;
              Net.restart_server d i
            | Net.Exited _ -> Net.restart_server d i
            | Net.Running -> ())
          (Net.poll_servers d)
      in
      List.iteri
        (fun i x ->
          (* packets sealed once and retried verbatim: the repair path
             must be driven by the SAME submission, not a fresh id *)
          let pk =
            Cl.submit ~rng
              ~mode:(Cl.Robust_snip afe.A.circuit)
              ~num_servers:3 ~client_id:i ~master:d.Net.cfg.Net.master
              (afe.A.encode ~rng x)
          in
          let rec attempt tries =
            match Net.submit_packets_outcome d ~rng ~client_id:i pk with
            | Net.Accepted -> incr accepted
            | (Net.Rejected _ | Net.Unreachable _) when tries < 5 ->
              (* the commit-window crash surfaces as a withheld ack plus
                 a dead port: restore the follower, resubmit *)
              revive ();
              attempt (tries + 1)
            | Net.Rejected why ->
              Alcotest.failf "value %d never landed: rejected: %s" x why
            | Net.Unreachable e ->
              Alcotest.failf "value %d never landed: %s" x
                (NetT.string_of_protocol_error e)
          in
          attempt 0)
        values;
      revive ();
      Alcotest.(check int) "the drill crashed inside the commit window" 1
        !commit_crashes;
      (* the repair actually ran on the leader, and every decision was
         write-ahead journaled there *)
      let prom = ok_exn (NetT.scrape_metrics ~tuning d.Net.addrs.(0)) in
      Alcotest.(check bool) "leader repaired the partial broadcast" true
        (contains ~affix:"prio_commit_repairs_total 1" prom);
      Alcotest.(check bool) "leader journaled every verdict" true
        (contains
           ~affix:
             (Printf.sprintf "prio_journal_appends_total %d"
                (List.length values))
           prom);
      (* consistency against the no-fault run: same accept count, same
         aggregate — nothing lost in the crashed window, nothing doubled
         by the resubmission + repair *)
      Alcotest.(check int) "accept count matches no-fault run" ref_accepted
        !accepted;
      let sigma = afe.A.decode ~n:!accepted (collect_exn d) in
      Alcotest.(check string) "aggregate matches no-fault run" ref_total
        (Prio_bigint.Bigint.to_string sigma))

let test_degraded_abort_idempotent () =
  (* Regression for the degraded-abort hole: when a follower dies
     mid-gossip the leader aborts the submission. The abort itself is now
     journaled and its [r] broadcast acked — so a retry of the same
     submission can only ever re-read the journaled verdict (first write
     wins), never re-verify into a contradictory accept. *)
  let afe = Sum.sum ~bits:4 in
  with_temp_dir "abort-journal" @@ fun dir ->
  let tuning = NetT.{ fast_tuning with checkpoint_dir = Some dir } in
  with_deployment ~tuning afe (fun d ->
      Alcotest.(check bool) "healthy accept" true
        (Net.submit d ~rng ~client_id:0 (afe.A.encode ~rng 5));
      let pk =
        Cl.submit ~rng
          ~mode:(Cl.Robust_snip afe.A.circuit)
          ~num_servers:3 ~client_id:1 ~master:d.Net.cfg.Net.master
          (afe.A.encode ~rng 7)
      in
      let exchange addr frame =
        let fd = ok_exn (NetT.dial addr) in
        ignore (NetT.write_frame fd frame);
        let r = ok_exn (NetT.read_frame ~deadline:(Retry.after 5.0) fd) in
        Unix.close fd;
        r
      in
      List.iter
        (fun i ->
          let p =
            NetT.tagged 'P'
              (Bytes.cat (NetT.put_u32 1)
                 (Bytes.cat (NetT.ctx_bytes ()) pk.Cl.sealed.(i)))
          in
          Alcotest.(check char) "P acked" 'K'
            (Bytes.get (exchange d.Net.addrs.(i) p) 0))
        [ 1; 2; 0 ];
      (* follower 2 dies between upload and verification: the verify
         degrades into an abort *)
      Unix.kill d.Net.pids.(2) Sys.sigkill;
      Unix.sleepf 0.05;
      (match
         NetT.parse_error_frame
           (exchange d.Net.addrs.(0) (NetT.tagged 'V' (NetT.put_u32 1)))
       with
      | Some (NetT.Unavailable, _) -> ()
      | Some (c, detail) ->
        Alcotest.failf "expected E/unavailable, got %s: %s"
          (NetT.string_of_error_code c) detail
      | None -> Alcotest.fail "expected a clean degraded refusal");
      (* the abort reached the healthy follower as an ACKED, JOURNALED
         [r]: its journal holds the accept from client 0 plus this
         reject — no fire-and-forget gap *)
      let prom1 = ok_exn (NetT.scrape_metrics ~tuning d.Net.addrs.(1)) in
      Alcotest.(check bool) "healthy follower journaled the abort" true
        (contains ~affix:"prio_journal_appends_total 2" prom1);
      (* retrying the aborted submission — across a follower restart,
         with the original packets — replays the journaled reject
         idempotently; it must NOT re-verify into an accept on any
         server (the contradictory-decision hole) *)
      Net.restart_server d 2;
      (match Net.submit_packets_outcome d ~rng ~client_id:1 pk with
      | Net.Rejected _ -> ()
      | Net.Accepted ->
        Alcotest.fail "aborted submission re-verified into an accept"
      | Net.Unreachable e ->
        Alcotest.failf "retry unreachable: %s"
          (NetT.string_of_protocol_error e));
      (* a third probe straight at the leader: still the same verdict *)
      Alcotest.(check char) "abort verdict sticky" 'R'
        (Bytes.get
           (exchange d.Net.addrs.(0) (NetT.tagged 'V' (NetT.put_u32 1)))
           0);
      (* and the aborted share contaminated no accumulator *)
      let sigma = afe.A.decode ~n:1 (collect_exn d) in
      Alcotest.(check string) "aggregate excludes the aborted share" "5"
        (Prio_bigint.Bigint.to_string sigma))

(* --------------------------- client uploads --------------------------- *)

let test_disconnect_fault_leaves_fd () =
  (* an injected disconnect severs the link but leaves the descriptor to
     its owner, which closes it once: a second close could hit the same
     number reused by a dial in between, killing a live link *)
  let faults () = Faults.create ~seed:"disconnect" (Faults.disconnect 1.0) in
  let check_severed what (a, b) =
    Alcotest.(check bool) (what ^ ": descriptor still open") true
      (match Unix.fstat a with
      | _ -> true
      | exception Unix.Unix_error (EBADF, _, _) -> false);
    (match NetT.read_frame ~deadline:(Retry.after 1.0) b with
    | Error (NetT.Closed _) -> ()
    | Ok _ -> Alcotest.failf "%s: peer read a frame, expected EOF" what
    | Error e ->
      Alcotest.failf "%s: peer expected EOF, got %s" what
        (NetT.string_of_protocol_error e));
    Unix.close a;
    Unix.close b
  in
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  (match NetT.send_frame ~faults:(faults ()) a (Bytes.of_string "P1") with
  | Error (NetT.Closed _) -> ()
  | _ -> Alcotest.fail "send: expected an injected disconnect");
  check_severed "send" (a, b);
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ok_exn (NetT.write_frame b (Bytes.of_string "K"));
  (match NetT.recv_frame ~faults:(faults ()) ~deadline:(Retry.after 1.0) a with
  | Error (NetT.Closed _) -> ()
  | _ -> Alcotest.fail "recv: expected an injected disconnect");
  check_severed "recv" (a, b)

(* Sessions keep one link per server for the whole stream: generous
   retries so one server's schedule outlasts a run of faults, and a
   short io deadline so each dropped frame costs little. *)
let session_tuning =
  NetT.
    {
      fast_tuning with
      io_timeout = 0.2;
      backoff = Retry.{ fast_tuning.backoff with max_attempts = 12 };
    }

let test_session_chaos () =
  (* one session carries every submission across both policies: dropped
     frames leave stale replies behind and disconnects kill links, and
     the session must redial instead of reading a late reply as the
     answer to a later request *)
  let afe = Sum.sum ~bits:4 in
  with_deployment ~tuning:session_tuning afe (fun d ->
      let s = Net.open_session d in
      Fun.protect
        ~finally:(fun () -> Net.close_session s)
        (fun () ->
          let total = ref 0 and n = ref 0 in
          List.iter
            (fun (seed, policy) ->
              let faults = Faults.create ~seed policy in
              for k = 0 to 19 do
                let x = (k * 7) mod 16 in
                (match
                   Net.submit_session ~faults s ~rng ~client_id:!n
                     (afe.A.encode ~rng x)
                 with
                | Net.Accepted -> ()
                | Net.Rejected why ->
                  Alcotest.failf "%s: submission %d rejected: %s" seed k why
                | Net.Unreachable e ->
                  Alcotest.failf "%s: submission %d unreachable: %s" seed k
                    (NetT.string_of_protocol_error e));
                total := !total + x;
                incr n
              done;
              Alcotest.(check bool) (seed ^ " injected faults") true
                (Faults.injected faults > 0))
            [ ("session-drop", Faults.drop 0.25);
              ("session-disconnect", Faults.disconnect 0.2) ];
          Alcotest.(check string) "aggregate exact" (string_of_int !total)
            (Prio_bigint.Bigint.to_string
               (afe.A.decode ~n:!n (collect_exn d)))))

let test_session_redials_restarted_follower () =
  (* a follower killed and restarted mid-stream leaves the session's
     cached link to it dead: the next submission on the same session
     must redial and land *)
  let afe = Sum.sum ~bits:4 in
  with_temp_dir "session-restart" @@ fun dir ->
  let tuning = NetT.{ fast_tuning with checkpoint_dir = Some dir } in
  with_deployment ~tuning afe (fun d ->
      let s = Net.open_session d in
      Fun.protect
        ~finally:(fun () -> Net.close_session s)
        (fun () ->
          let submit i x =
            match
              Net.submit_session s ~rng ~client_id:i (afe.A.encode ~rng x)
            with
            | Net.Accepted -> ()
            | Net.Rejected why -> Alcotest.failf "value %d rejected: %s" x why
            | Net.Unreachable e ->
              Alcotest.failf "value %d unreachable: %s" x
                (NetT.string_of_protocol_error e)
          in
          List.iteri submit [ 3; 5; 8 ];
          Unix.kill d.Net.pids.(1) Sys.sigkill;
          let rec wait_dead n =
            match (Net.poll_servers d).(1) with
            | Net.Exited _ -> ()
            | Net.Running ->
              if n = 0 then Alcotest.fail "follower ignored SIGKILL";
              Unix.sleepf 0.01;
              wait_dead (n - 1)
          in
          wait_dead 200;
          Net.restart_server d 1;
          submit 3 6;
          submit 4 1;
          Alcotest.(check string) "aggregate across the restart" "23"
            (Prio_bigint.Bigint.to_string (afe.A.decode ~n:5 (collect_exn d)))))

let test_uploads_overlap () =
  (* two followers each sit 0.2 s on every frame they receive: uploads
     that run one after another cost at least 0.4 s, an upload round
     that posts to every server before reading any reply about 0.2 s *)
  let afe = Sum.sum ~bits:4 in
  let tuning = NetT.{ fast_tuning with io_timeout = 2.0 } in
  let faults_for id =
    if id = 0 then None
    else
      Some
        (Faults.create ~seed:"slow-follower" (Faults.slow ~p:1.0 ~delay:0.2))
  in
  let client = Trace.create ~origin:"client" () in
  Trace.install client;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      with_deployment ~tuning ~faults_for afe (fun d ->
          Alcotest.(check bool) "accepted" true
            (Net.submit d ~rng ~client_id:0 (afe.A.encode ~rng 4))));
  let uploads =
    List.filter
      (fun sp -> sp.Trace.name = "net.upload")
      (Trace.spans client)
  in
  Alcotest.(check bool) "uploads traced" true (uploads <> []);
  let first =
    List.fold_left (fun t sp -> Float.min t sp.Trace.start) infinity uploads
  and last =
    List.fold_left
      (fun t sp -> Float.max t (sp.Trace.start +. sp.Trace.duration))
      neg_infinity uploads
  in
  if last -. first >= 0.3 then
    Alcotest.failf "uploads took %.3f s: the slow followers were not overlapped"
      (last -. first)

(* ------------------------- telemetry plane --------------------------- *)

let test_scrape_and_health () =
  let afe = Sum.sum ~bits:4 in
  with_deployment afe (fun d ->
      List.iteri
        (fun i x ->
          Alcotest.(check bool) "accepted" true
            (Net.submit d ~rng ~client_id:i (afe.A.encode ~rng x)))
        [ 5; 9 ];
      (* live Prometheus scrape off the leader, over the wire *)
      let prom =
        ok_exn (NetT.scrape_metrics ~tuning:fast_tuning d.Net.addrs.(0))
      in
      Alcotest.(check bool) "stage histograms exported" true
        (contains ~affix:"# TYPE prio_stage_admit_seconds histogram" prom);
      Alcotest.(check bool) "admit stage saw both submissions" true
        (contains ~affix:"prio_stage_admit_seconds_count 2" prom);
      Alcotest.(check bool) "verify stage rendered" true
        (contains ~affix:"prio_stage_verify_seconds_count" prom);
      (* the JSON form carries the per-stage percentiles *)
      let json =
        ok_exn
          (NetT.scrape_metrics ~tuning:fast_tuning ~format:`Json
             d.Net.addrs.(0))
      in
      Alcotest.(check bool) "JSON scrape has the verify histogram" true
        (contains ~affix:"\"prio_stage_verify_seconds\":{" json);
      Alcotest.(check bool) "JSON scrape has percentiles" true
        (contains ~affix:"\"p50\":" json);
      (* health probes: the leader reports its gossip links, a follower
         reports none *)
      let h0 = ok_exn (NetT.probe_health ~tuning:fast_tuning d.Net.addrs.(0)) in
      Alcotest.(check int) "leader id" 0 h0.NetT.h_server;
      Alcotest.(check int) "leader folded both" 2 h0.NetT.h_accepted;
      Alcotest.(check int) "nothing pending" 0 h0.NetT.h_pending;
      Alcotest.(check int) "leader lists every follower" 2
        (List.length h0.NetT.h_peers);
      List.iter
        (fun (id, up) ->
          if not up then Alcotest.failf "gossip link to %d reported down" id)
        h0.NetT.h_peers;
      let h1 = ok_exn (NetT.probe_health ~tuning:fast_tuning d.Net.addrs.(1)) in
      Alcotest.(check int) "follower id" 1 h1.NetT.h_server;
      Alcotest.(check (list (pair int bool))) "followers hold no gossip links"
        [] h1.NetT.h_peers)

let test_probe_driven_supervision () =
  let afe = Sum.sum ~bits:4 in
  with_deployment afe (fun d ->
      Alcotest.(check bool) "healthy accept" true
        (Net.submit d ~rng ~client_id:0 (afe.A.encode ~rng 5));
      Array.iteri
        (fun i p ->
          match p with
          | Net.Probe_ok _ -> ()
          | _ -> Alcotest.failf "server %d should probe healthy" i)
        (Net.probe_deployment d);
      Unix.kill d.Net.pids.(1) Sys.sigkill;
      Unix.sleepf 0.05;
      (match (Net.probe_deployment d).(1) with
      | Net.Probe_dead _ -> ()
      | _ -> Alcotest.fail "probe sweep should see the corpse");
      Alcotest.(check (list int)) "supervisor restarts exactly the dead one"
        [ 1 ] (Net.supervise d);
      (match (Net.probe_deployment d).(1) with
      | Net.Probe_ok _ -> ()
      | _ -> Alcotest.fail "revived follower should probe healthy");
      Alcotest.(check bool) "accepts after probe-driven restart" true
        (Net.submit d ~rng ~client_id:1 (afe.A.encode ~rng 3)))

let test_merged_trace_ancestry () =
  (* a client submission under seeded client-side chaos, traced across
     the process boundary: after the deployment shuts down (dumping each
     server's spans), the merged tree must show every server's admit and
     verify work as a descendant of the client's submission span — and
     the whole run is a pure function of the fault seed *)
  let afe = Sum.sum ~bits:4 in
  with_temp_dir "traces" (fun dir ->
      let tuning = NetT.{ fast_tuning with trace_dir = Some dir } in
      let client = Trace.create ~origin:"client" () in
      Trace.install client;
      let faults = Faults.create ~seed:"trace-chaos" (Faults.drop 0.25) in
      Fun.protect
        ~finally:(fun () -> Trace.uninstall ())
        (fun () ->
          with_deployment ~tuning afe (fun d ->
              Trace.with_span "net.submit"
                ~attrs:[ ("client", "0") ]
                (fun () ->
                  match
                    Net.submit_outcome ~faults d ~rng ~client_id:0
                      (afe.A.encode ~rng 6)
                  with
                  | Net.Accepted -> ()
                  | Net.Rejected why ->
                    Alcotest.failf "rejected under seeded chaos: %s" why
                  | Net.Unreachable e ->
                    Alcotest.failf "unreachable under seeded chaos: %s"
                      (NetT.string_of_protocol_error e))));
      Alcotest.(check bool) "chaos actually injected faults" true
        (Faults.injected faults > 0);
      let read f = In_channel.with_open_bin f In_channel.input_all in
      let dumps =
        Trace.to_jsonl client
        :: (Sys.readdir dir |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
           |> List.map (fun f -> read (Filename.concat dir f)))
      in
      Alcotest.(check int) "client + one dump per server" 4
        (List.length dumps);
      let merged = Trace.merge dumps in
      let by_id = Hashtbl.create 64 in
      List.iter (fun m -> Hashtbl.replace by_id m.Trace.m_id m) merged;
      let rec descends m target =
        m.Trace.m_id = target
        ||
        match m.Trace.m_parent with
        | None -> false
        | Some p -> (
          match Hashtbl.find_opt by_id p with
          | Some pm -> descends pm target
          | None -> false)
      in
      let submit =
        match
          List.find_opt
            (fun m ->
              m.Trace.m_name = "net.submit" && m.Trace.m_origin = "client")
            merged
        with
        | Some m -> m
        | None -> Alcotest.fail "client submission span missing from merge"
      in
      let named n = List.filter (fun m -> m.Trace.m_name = n) merged in
      (* retries may admit the same share more than once (idempotently),
         so assert on the set of origins, not span counts *)
      let origins spans =
        List.sort_uniq compare (List.map (fun m -> m.Trace.m_origin) spans)
      in
      let admits = named "server.admit" in
      Alcotest.(check (list string)) "every server admitted under the trace"
        [ "server0"; "server1"; "server2" ]
        (origins admits);
      List.iter
        (fun a ->
          if not (descends a submit.Trace.m_id) then
            Alcotest.failf "%s admit span is not under the client submission"
              a.Trace.m_origin)
        admits;
      let verifies = named "server.verify" in
      Alcotest.(check bool) "leader verify descends from the submission" true
        (List.exists
           (fun v ->
             v.Trace.m_origin = "server0" && descends v submit.Trace.m_id)
           verifies);
      Alcotest.(check bool) "a follower verify descends from it too" true
        (List.exists
           (fun v ->
             v.Trace.m_origin <> "server0" && descends v submit.Trace.m_id)
           verifies);
      List.iter
        (fun m ->
          if descends m submit.Trace.m_id then
            Alcotest.(check string)
              (m.Trace.m_id ^ " shares the trace id")
              submit.Trace.m_trace m.Trace.m_trace)
        merged;
      (* causal order: every span's parent precedes it in the merge *)
      let seen = Hashtbl.create 64 in
      List.iter
        (fun m ->
          (match m.Trace.m_parent with
          | Some p when Hashtbl.mem by_id p ->
            if not (Hashtbl.mem seen p) then
              Alcotest.failf "%s ordered before its parent" m.Trace.m_id
          | _ -> ());
          Hashtbl.replace seen m.Trace.m_id ())
        merged)

let () =
  Alcotest.run "net"
    [
      ( "tcp deployment",
        [
          Alcotest.test_case "sum end-to-end" `Quick test_sum_end_to_end;
          Alcotest.test_case "rejects cheater" `Quick test_rejects_cheater;
          Alcotest.test_case "five servers histogram" `Quick
            test_five_servers_histogram;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "drop policy" `Quick test_chaos_drop;
          Alcotest.test_case "corrupt policy" `Quick test_chaos_corrupt;
          Alcotest.test_case "truncate policy" `Quick test_chaos_truncate;
          Alcotest.test_case "slow-peer policy" `Quick test_chaos_slow;
          Alcotest.test_case "follower crash policy" `Quick
            test_chaos_follower_crash;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "leader degrades, supervisor restarts" `Quick
            test_leader_degrades_and_restarts;
          Alcotest.test_case "malformed-frame fuzz" `Quick
            test_fuzz_malformed_frames;
          Alcotest.test_case "idempotent retries" `Quick
            test_idempotent_retries;
        ] );
      ( "admission & durability",
        [
          Alcotest.test_case "busy shed and recovery" `Quick
            test_admission_busy_shed;
          Alcotest.test_case "restore equals uninterrupted" `Quick
            test_restore_equals_uninterrupted;
          Alcotest.test_case "seeded crash+restore drill" `Quick
            test_restore_chaos_drill;
          Alcotest.test_case "commit-window chaos drill" `Quick
            test_commit_window_chaos_drill;
          Alcotest.test_case "degraded abort journaled and idempotent" `Quick
            test_degraded_abort_idempotent;
        ] );
      ( "client uploads",
        [
          Alcotest.test_case "disconnect fault leaves the fd to its owner"
            `Quick test_disconnect_fault_leaves_fd;
          Alcotest.test_case "session survives drop and disconnect" `Quick
            test_session_chaos;
          Alcotest.test_case "session redials a restarted follower" `Quick
            test_session_redials_restarted_follower;
          Alcotest.test_case "uploads overlap" `Quick test_uploads_overlap;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "live scrape and health probes" `Quick
            test_scrape_and_health;
          Alcotest.test_case "probe-driven supervision" `Quick
            test_probe_driven_supervision;
          Alcotest.test_case "merged trace ancestry under chaos" `Quick
            test_merged_trace_ancestry;
        ] );
    ]

(* Multicore suite, run under the @par alias with a fixed domain count so
   results never depend on the host's core inventory: the domain worker
   pool's scheduling contracts, pipeline-level parallel verification
   against the sequential reference, and the TCP runtime under a
   concurrent client batch. *)

module F = Prio_field.F87
module Pool = Prio_proto.Pool
module Pipe = Prio_proto.Pipeline.Make (F)
module Cl = Prio_proto.Cluster.Make (F)
module Net = Prio_proto.Net.Make (F)
module NetT = Prio_proto.Net
module Retry = Prio_proto.Retry
module Sum = Prio_afe.Sum.Make (F)
module A = Prio_afe.Afe.Make (F)
module Rng = Prio_crypto.Rng
module B = Prio_bigint.Bigint

let rng = Rng.of_string_seed "par-tests"

(* Fixed for the whole suite: @par exists to pin one domain count, not to
   scale with the machine. *)
let par_domains = 4

(* ------------------------------- pool -------------------------------- *)

let test_pool_map_order () =
  let p = Pool.create ~domains:par_domains in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.(check int) "size" par_domains (Pool.size p);
      let xs = Array.init 200 Fun.id in
      let ys = Pool.map_array p (fun x -> x * x) xs in
      Alcotest.(check bool) "results in index order" true
        (Array.for_all2 (fun x y -> x * x = y) xs ys))

let test_pool_inline () =
  (* domains:1 = pure tuning knob: no workers, tasks run on the caller *)
  let p = Pool.create ~domains:1 in
  Alcotest.(check int) "inline size" 1 (Pool.size p);
  let ran = ref false in
  let fut =
    Pool.submit p (fun () ->
        ran := true;
        41 + 1)
  in
  Alcotest.(check bool) "ran eagerly on the caller" true !ran;
  Alcotest.(check int) "value" 42 (Pool.await fut);
  Pool.shutdown p

let test_pool_exceptions () =
  let p = Pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let fut = Pool.submit p (fun () -> failwith "boom") in
      Alcotest.check_raises "await re-raises" (Failure "boom") (fun () ->
          ignore (Pool.await fut));
      (* one failed task must not poison the pool *)
      Alcotest.(check int) "still serving" 7
        (Pool.await (Pool.submit p (fun () -> 7))))

let test_pool_shutdown () =
  let p = Pool.create ~domains:2 in
  let fut = Pool.submit p (fun () -> 5) in
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.(check int) "pre-shutdown task completed" 5 (Pool.await fut);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit p (fun () -> 0)));
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0))

let test_pool_helping_await () =
  (* awaiting inside a task must not deadlock: the awaiting thread runs
     other queued tasks while its own dependency is pending. With 2
     capacity units and 16 tasks that each await a subtask, a
     non-helping pool would wedge immediately. *)
  let p = Pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let outer =
        Array.init 16 (fun i ->
            Pool.submit p (fun () ->
                let inner = Pool.submit p (fun () -> i * 2) in
                1 + Pool.await inner))
      in
      let total = Array.fold_left (fun acc f -> acc + Pool.await f) 0 outer in
      Alcotest.(check int) "all nested tasks finished" (16 + 16 * 15) total)

(* ----------------------- pipeline verification ----------------------- *)

let test_process_parallel_matches () =
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let make_replica () =
    Cl.create ~batch_size:5 ~rng:(Rng.split rng) ~mode:Cl.Robust_snip
      ~circuit:afe.A.circuit ~trunc_len:afe.A.trunc_len ~num_servers:3 ~master
      ()
  in
  let serial = make_replica () in
  let encodings = List.init 12 (fun i -> afe.A.encode ~rng (i mod 16)) in
  let prepared = Pipe.prepare ~rng serial encodings in
  let accepted_serial, _ = Pipe.process serial prepared in
  Alcotest.(check int) "serial accepts all" 12 accepted_serial;
  let serial_links = Array.map Array.copy serial.Cl.links in
  let expected = List.fold_left ( + ) 0 (List.init 12 (fun i -> i mod 16)) in
  let pool = Pool.create ~domains:par_domains in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun domains ->
          let merged, accepted, _seconds =
            Pipe.process_parallel ~pool ~make_replica ~domains prepared
          in
          Alcotest.(check int)
            (Printf.sprintf "accepted (%d domains)" domains)
            accepted_serial accepted;
          Alcotest.(check int) "batches" serial.Cl.batches merged.Cl.batches;
          Alcotest.(check int) "processed_in_batch"
            serial.Cl.processed_in_batch merged.Cl.processed_in_batch;
          Alcotest.(check int) "next_leader" serial.Cl.next_leader
            merged.Cl.next_leader;
          Array.iteri
            (fun i row ->
              Alcotest.(check (array int))
                (Printf.sprintf "link bytes from server %d (%d domains)" i
                   domains)
                serial_links.(i) row)
            merged.Cl.links;
          let total = afe.A.decode ~n:accepted (Cl.publish merged) in
          Alcotest.(check string)
            (Printf.sprintf "aggregate (%d domains)" domains)
            (string_of_int expected) (B.to_string total))
        [ 1; 2; par_domains ])

(* --------------------------- TCP runtime ----------------------------- *)

let par_tuning =
  NetT.
    {
      default_tuning with
      io_timeout = 2.0;
      dial_timeout = 2.0;
      backoff =
        Retry.
          {
            default_backoff with
            max_attempts = 8;
            base_delay = 0.005;
            max_delay = 0.04;
          };
    }

let test_net_concurrent_batch () =
  let afe = Sum.sum ~bits:4 in
  let cfg =
    Net.
      {
        circuit = afe.A.circuit;
        trunc_len = afe.A.trunc_len;
        num_servers = 3;
        master = Rng.bytes rng 32;
        batch_seed = Rng.bytes rng 32;
      }
  in
  let d = Net.launch ~tuning:par_tuning cfg in
  Fun.protect
    ~finally:(fun () -> Net.shutdown d)
    (fun () ->
      let values = [| 3; 7; 15; 0; 9; 12 |] in
      let packets =
        Array.mapi
          (fun i x ->
            let enc = afe.A.encode ~rng x in
            if i = 4 then enc.(0) <- F.of_int 999;
            ( i,
              Net.Client.submit ~rng ~mode:(Net.Client.Robust_snip cfg.circuit)
                ~num_servers:3 ~client_id:i ~master:cfg.master enc ))
          values
      in
      let outcomes = Net.submit_batch ~domains:2 d ~rng packets in
      Array.iteri
        (fun i o ->
          let want = i <> 4 in
          let got =
            match o with
            | Net.Accepted -> true
            | Net.Rejected _ -> false
            | Net.Unreachable e ->
              Alcotest.failf "client %d unreachable: %s" i
                (NetT.string_of_protocol_error e)
          in
          Alcotest.(check bool)
            (Printf.sprintf "outcome %d" i)
            want got)
        outcomes;
      let agg =
        match Net.collect_aggregate d with
        | Ok v -> v
        | Error (i, e) ->
          Alcotest.failf "collect: server %d: %s" i
            (NetT.string_of_protocol_error e)
      in
      let total = afe.A.decode ~n:5 agg in
      Alcotest.(check string) "aggregate excludes the cheater" "37"
        (B.to_string total))

let () =
  Alcotest.run "par"
    [
      (* The TCP suite must run FIRST: the OCaml runtime refuses
         [Unix.fork] in any process that has ever spawned a domain (even
         a joined one), and [Net.launch] forks the server processes.
         Within the test itself the ordering is safe: the forks all
         happen in [launch], before [submit_batch] spawns driver-side
         domains. *)
      ( "tcp runtime",
        [
          Alcotest.test_case "concurrent batch" `Quick
            test_net_concurrent_batch;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map_array keeps index order" `Quick
            test_pool_map_order;
          Alcotest.test_case "inline pool runs on the caller" `Quick
            test_pool_inline;
          Alcotest.test_case "exceptions re-raised, pool survives" `Quick
            test_pool_exceptions;
          Alcotest.test_case "shutdown contract" `Quick test_pool_shutdown;
          Alcotest.test_case "helping await never deadlocks" `Quick
            test_pool_helping_await;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "process_parallel = process" `Quick
            test_process_parallel_matches;
        ] );
    ]

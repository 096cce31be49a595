(* Multicore suite, run under the @par alias with a fixed domain count so
   results never depend on the host's core inventory: the [Parallel.map]
   fan-out contracts, pipeline-level parallel verification
   against the sequential reference, and the TCP runtime under a
   concurrent client batch. *)

module F = Prio_field.F87
module Par = Prio_proto.Parallel
module Pipe = Prio_proto.Pipeline.Make (F)
module Shards = Prio_proto.Parallel.Make (F)
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

(* --------------------------- Parallel.map ---------------------------- *)

let test_map_order () =
  let xs = Array.init 200 Fun.id in
  List.iter
    (fun domains ->
      let ys = Par.map ~domains (fun x -> x * x) xs in
      Alcotest.(check bool)
        (Printf.sprintf "results in index order (%d domains)" domains)
        true
        (Array.for_all2 (fun x y -> x * x = y) xs ys))
    [ 1; 2; par_domains; 300 ];
  Alcotest.(check (array int)) "more domains than items" [| 0; 2; 4 |]
    (Par.map ~domains:8 (fun x -> 2 * x) [| 0; 1; 2 |]);
  Alcotest.(check (array int)) "empty array" [||]
    (Par.map ~domains:par_domains (fun x -> x) [||])

let test_map_one_domain () =
  (* domains:1 spawns nothing: every call runs on the caller's domain.
     The first call naps so that any stray domain would get to take the
     next index in the meantime. *)
  let caller = (Domain.self () :> int) in
  let ran_on =
    Par.map ~domains:1
      (fun i ->
        if i = 0 then Unix.sleepf 0.05;
        (Domain.self () :> int))
      (Array.init 8 Fun.id)
  in
  Alcotest.(check bool) "ran on the caller" true
    (Array.for_all (Int.equal caller) ran_on)

let test_map_exceptions () =
  (* every index still runs, and the lowest failing index wins no matter
     which domain reached its failure first *)
  let ran = Atomic.make 0 in
  Alcotest.check_raises "lowest-index exception" (Failure "3") (fun () ->
      ignore
        (Par.map ~domains:par_domains
           (fun i ->
             Atomic.incr ran;
             if i = 3 || i = 17 || i = 40 then failwith (string_of_int i))
           (Array.init 64 Fun.id)));
  Alcotest.(check int) "every domain joined after running its share" 64
    (Atomic.get ran)

let test_map_zero_domains () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Parallel.map: domains < 1") (fun () ->
      ignore (Par.map ~domains:0 Fun.id [| 1 |]))

(* ----------------------- pipeline verification ----------------------- *)

let test_parallel_process_matches () =
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
  List.iter
    (fun domains ->
      let merged, accepted =
        Shards.process ~make_replica ~domains prepared.Pipe.packets
      in
      Alcotest.(check int)
        (Printf.sprintf "accepted (%d domains)" domains)
        accepted_serial accepted;
      Alcotest.(check int) "batches" serial.Cl.batches merged.Cl.batches;
      Alcotest.(check int) "processed_in_batch" serial.Cl.processed_in_batch
        merged.Cl.processed_in_batch;
      Alcotest.(check int) "next_leader" serial.Cl.next_leader
        merged.Cl.next_leader;
      Array.iteri
        (fun i row ->
          Alcotest.(check (array int))
            (Printf.sprintf "link bytes from server %d (%d domains)" i domains)
            serial_links.(i) row)
        merged.Cl.links;
      let total = afe.A.decode ~n:accepted (Cl.publish merged) in
      Alcotest.(check string)
        (Printf.sprintf "aggregate (%d domains)" domains)
        (string_of_int expected) (B.to_string total))
    [ 1; 2; par_domains ]

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
      ( "parallel map",
        [
          Alcotest.test_case "keeps index order" `Quick test_map_order;
          Alcotest.test_case "one domain runs on the caller" `Quick
            test_map_one_domain;
          Alcotest.test_case "lowest-index exception after join" `Quick
            test_map_exceptions;
          Alcotest.test_case "zero domains rejected" `Quick
            test_map_zero_domains;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "Parallel.process = process" `Quick
            test_parallel_process_matches;
        ] );
    ]

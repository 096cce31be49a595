(* Pins the benchmark's own arithmetic (arith.ml): percentiles and the
   tail choice, run-set quartiles, open-loop latency and generator lag,
   the self-time ledger over a merged cross-process trace, and scrape
   deltas. *)

module A = Perfbench.Arith
module Trace = Core.Prio.Obs_trace

let close = Alcotest.float 1e-9
let ms = 1e-3

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check close) "p50 of 1..100" 50. (A.percentile ~pct:50 xs);
  Alcotest.(check close) "p90 of 1..100" 90. (A.percentile ~pct:90 xs);
  Alcotest.(check close) "p99 of 1..100" 99. (A.percentile ~pct:99 xs);
  Alcotest.(check close) "p100 is the max" 100. (A.percentile ~pct:100 xs);
  Alcotest.(check int) "p99 of 1000 is rank 990, not 991" 990 (A.rank ~pct:99 1000);
  Alcotest.(check close) "single sample" 7. (A.percentile ~pct:99 [| 7. |]);
  Alcotest.(check close) "median of an even count is the lower middle" 2.
    (A.median [ 4.; 1.; 3.; 2. ])

let test_tail_choice () =
  let tail n = Option.map fst (A.tail (Array.init n float_of_int)) in
  let pct = Alcotest.(option int) in
  Alcotest.(check pct) "1000 samples: p99 has 10 beyond" (Some 99) (tail 1000);
  Alcotest.(check pct) "999 samples: p99 has 9, so p95" (Some 95) (tail 999);
  Alcotest.(check pct) "150 samples: only p90 has 10 beyond" (Some 90) (tail 150);
  Alcotest.(check pct) "100 samples: p90 exactly" (Some 90) (tail 100);
  Alcotest.(check pct) "99 samples: no tail" None (tail 99);
  Alcotest.(check (option (pair int close))) "value at the chosen rank"
    (Some (99, 990.)) (A.tail (Array.init 1000 (fun i -> float_of_int (i + 1))))

(* Expected values from Python's statistics.quantiles(xs, n=4) and
   statistics.median. *)
let test_quartiles () =
  let q = Alcotest.(triple close close close) in
  Alcotest.(check q) "ten values, interpolated" (3.5, 24., 160.)
    (A.quartiles [ 512.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]);
  Alcotest.(check q) "three values" (1., 2., 3.) (A.quartiles [ 3.; 1.; 2. ]);
  Alcotest.(check close) "spread of seven values" 1.4
    (A.iqr_share [ 5.; 1.; 9.; 7.; 3.; 11.; 2. ])

(* One generator thread against a server that answers in 1 ms, except
   submission 1 which stalls for 25 ms; arrivals every 10 ms. *)
let stalled_schedule () =
  let service = [| 1.; 25.; 1.; 1.; 1. |] in
  let free = ref 0. in
  List.init 5 (fun i ->
      let due = 10. *. float_of_int i *. ms in
      let start = Float.max due !free in
      let finish = start +. (service.(i) *. ms) in
      free := finish;
      { A.due; start; finish })

let test_open_loop () =
  let ts = stalled_schedule () in
  let in_ms f = List.map (fun t -> Float.round (f t /. ms *. 1000.) /. 1000.) ts in
  Alcotest.(check (list close)) "latency runs from the due time"
    [ 1.; 25.; 16.; 7.; 1. ] (in_ms A.latency);
  Alcotest.(check (list close)) "lag: how late each send left"
    [ 0.; 0.; 15.; 6.; 0. ] (in_ms A.lag);
  Alcotest.(check int) "at 30 ms two submissions were due and unsent" 2
    (A.backlog_max ts);
  let on_time = [ { A.due = 0.; start = 0.; finish = 1. } ] in
  Alcotest.(check int) "a send exactly on time leaves no backlog" 0
    (A.backlog_max on_time)

(* A client process and two servers. The leader's admit span names the
   client's upload span, inside which the client was in an RPC; the
   leader's verify span outlives the client's verify (the reply went out
   before the span closed); a follower's snapshot write is a root span
   in its own process. *)
let dumps =
  let span ?parent ?remote id name start duration origin =
    Printf.sprintf
      "{\"id\":%d,\"parent\":%s,\"origin\":\"%s\",\"trace\":\"t\",%s\"kind\":\"span\",\"name\":\"%s\",\"start\":%g,\"duration\":%g}"
      id
      (match parent with Some p -> string_of_int p | None -> "null")
      origin
      (match remote with Some r -> Printf.sprintf "\"remote\":\"%s\"," r | None -> "")
      name start duration
  in
  let doc origin spans = String.concat "\n" (List.map (fun f -> f origin) spans) in
  [
    doc "client"
      [
        span 1 "net.submit" 0. 10.;
        span ~parent:1 2 "net.upload" 1. 4.;
        span ~parent:2 3 "net.rpc" 1.5 3.;
        span ~parent:1 4 "net.verify" 6. 3.5;
        span ~parent:4 5 "net.rpc" 6. 3.5;
        (* a second submission, after the first *)
        span 6 "net.submit" 20. 2.;
      ];
    doc "server0"
      [
        span ~remote:"client#2" 1 "server.admit" 2. 2.;
        span ~remote:"client#4" 2 "server.verify" 6.5 4.;
        span ~parent:2 3 "server.checkpoint" 9. 0.25;
      ];
    doc "server1"
      [
        span 1 "server.checkpoint" 7. 1.;
        span ~remote:"server0#2" 2 "server.decide" 8.5 0.25;
      ];
  ]

let test_ledger () =
  let subs = A.ledger ~root:"net.submit" (Trace.merge dumps) in
  Alcotest.(check int) "one ledger row per submission" 2 (List.length subs);
  let s = List.hd subs in
  let self name = Option.value ~default:0. (List.assoc_opt name s.A.self_by_name) in
  Alcotest.(check close) "wall is the root's duration" 10. s.A.wall;
  Alcotest.(check close) "admit: its own 2 units" 2. (self "server.admit");
  Alcotest.(check close) "rpcs: upload rpc minus the admit inside it, plus verify rpc minus the server"
    (1. +. 0.5) (self "net.rpc");
  Alcotest.(check close) "upload: outside its rpc" 1. (self "net.upload");
  (* verify clipped to [6.5, 9.5]: minus the follower's orphan snapshot
     [7, 8], its decide [8.5, 8.75] and its own snapshot [9, 9.25] *)
  Alcotest.(check close) "verify: clipped, minus cross-process children" 1.5
    (self "server.verify");
  Alcotest.(check close) "snapshots from both servers" 1.25 (self "server.checkpoint");
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. s.A.self_by_name in
  Alcotest.(check close) "self times add up to the wall time" s.A.wall total;
  let layers, unattributed =
    A.layer_medians ~names:[ "server.admit"; "server.verify" ] [ s ]
  in
  Alcotest.(check (list (pair string close))) "layer medians"
    [ ("server.admit", 2.); ("server.verify", 1.5) ] layers;
  Alcotest.(check close) "unattributed is what the named layers leave" 6.5 unattributed

let scrape pairs =
  A.scrape_of_text
    ("{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) pairs) ^ "}")

let test_scrape_deltas () =
  let tx = "prio_net_tx_bytes_total" and frames = "prio_net_tx_frames_total" in
  let a0 = scrape [ (tx, 1000); (frames, 10); ("prio_journal_appends_total", 3) ] in
  let b0 = scrape [ (tx, 5000); (frames, 50); ("prio_journal_appends_total", 13) ] in
  Alcotest.(check close) "tx bytes exclude the first scrape's reply"
    (4000. -. float_of_int (5 + a0.A.text_len))
    (A.counter_delta ~since:(Some a0) ~until:b0 tx);
  Alcotest.(check close) "tx frames exclude the reply frame" 39.
    (A.counter_delta ~since:(Some a0) ~until:b0 frames);
  Alcotest.(check close) "other counters are plain differences" 10.
    (A.counter_delta ~since:(Some a0) ~until:b0 "prio_journal_appends_total");
  (* server 1 was restarted in the window: one segment up to the scrape
     before the kill, one from zero in its successor *)
  let a1 = scrape [ (frames, 20) ] and killed = scrape [ (frames, 30) ] in
  let after = scrape [ (frames, 8) ] in
  let segments = [ (Some a0, b0); (Some a1, killed); (None, after) ] in
  Alcotest.(check close) "per submission over all segments" ((39. +. 9. +. 8.) /. 4.)
    (A.per_unit ~segments ~per:4 frames);
  Alcotest.(check close) "absent counters read 0" 0. (A.counter b0 "prio_net_shed_total")

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "tail percentile choice" `Quick test_tail_choice;
          Alcotest.test_case "run-set quartiles and spread" `Quick test_quartiles;
          Alcotest.test_case "open-loop latency, lag, backlog" `Quick test_open_loop;
          Alcotest.test_case "cross-process self-time ledger" `Quick test_ledger;
          Alcotest.test_case "scrape counter deltas" `Quick test_scrape_deltas;
        ] );
    ]

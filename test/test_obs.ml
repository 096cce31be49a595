(* The observability layer: injectable clocks, the metrics registry and
   its log-scale histograms, the span recorder, and the properties the
   rest of the system leans on — zero-cost no-op mode, deterministic
   traces under fixed clocks and seeded faults, and the unified byte
   accounting agreeing exactly with the legacy per-object accessors. *)

open Core
module Clock = Prio.Obs_clock
module Metrics = Prio.Obs_metrics
module Trace = Prio.Obs_trace
module Report = Prio.Obs_report
module Json = Prio.Obs_json
module Faults = Prio.Faults

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let with_recorder ?clock f =
  let r = Trace.create ?clock ~capacity:4096 () in
  Trace.install r;
  Fun.protect ~finally:Trace.uninstall (fun () -> f r)

(* ------------------------------- clocks ------------------------------ *)

let test_clocks () =
  let m = Clock.manual ~start:10. () in
  Alcotest.(check (float 0.)) "manual frozen" 10. (Clock.now m);
  Alcotest.(check (float 0.)) "manual frozen twice" 10. (Clock.now m);
  Clock.advance m 2.5;
  Alcotest.(check (float 0.)) "manual advanced" 12.5 (Clock.now m);
  Clock.set m 100.;
  Alcotest.(check (float 0.)) "manual set" 100. (Clock.now m);
  let t = Clock.ticking ~start:0. ~step:1. () in
  Alcotest.(check (float 0.)) "tick 0" 0. (Clock.now t);
  Alcotest.(check (float 0.)) "tick 1" 1. (Clock.now t);
  Alcotest.(check (float 0.)) "tick 2" 2. (Clock.now t);
  Alcotest.check_raises "system clock cannot be set"
    (Invalid_argument "Obs.Clock.set: cannot set the system clock") (fun () ->
      Clock.set Clock.system 0.)

(* ---------------------------- span nesting --------------------------- *)

let test_span_nesting () =
  let clock = Clock.manual ~start:100. () in
  with_recorder ~clock @@ fun r ->
  Trace.with_span "outer" ~attrs:[ ("phase", "test") ] (fun () ->
      Clock.advance clock 1.;
      Trace.with_span "inner" (fun () -> Clock.advance clock 0.5);
      Trace.event "mark" ~attrs:[ ("k", "v") ];
      Clock.advance clock 0.25);
  match Trace.spans r with
  | [ outer; inner; mark ] ->
    Alcotest.(check string) "outer name" "outer" outer.Trace.name;
    Alcotest.(check (option int)) "outer is a root" None outer.Trace.parent;
    Alcotest.(check (float 0.)) "outer start" 100. outer.Trace.start;
    Alcotest.(check (float 1e-9)) "outer duration" 1.75 outer.Trace.duration;
    Alcotest.(check string) "inner name" "inner" inner.Trace.name;
    Alcotest.(check (option int))
      "inner nested under outer" (Some outer.Trace.id) inner.Trace.parent;
    Alcotest.(check (float 0.)) "inner start" 101. inner.Trace.start;
    Alcotest.(check (float 1e-9)) "inner duration" 0.5 inner.Trace.duration;
    Alcotest.(check bool) "mark is an event" true (mark.Trace.kind = Trace.Event);
    Alcotest.(check (option int))
      "event under outer" (Some outer.Trace.id) mark.Trace.parent
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_exception_safety () =
  let clock = Clock.manual () in
  with_recorder ~clock @@ fun r ->
  (try
     Trace.with_span "outer" (fun () ->
         Trace.with_span "thrower" (fun () ->
             Clock.advance clock 1.;
             failwith "boom"))
   with Failure _ -> ());
  (* both spans closed despite the exception; a sibling span opened
     afterwards nests at the root, not under a leaked parent *)
  Trace.with_span "after" (fun () -> ());
  match Trace.spans r with
  | [ outer; thrower; after ] ->
    Alcotest.(check (float 1e-9))
      "raising span still got a duration" 1. thrower.Trace.duration;
    Alcotest.(check (float 1e-9))
      "outer closed too" 1. outer.Trace.duration;
    Alcotest.(check (option int)) "stack unwound" None after.Trace.parent
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_ring_eviction () =
  let r = Trace.create ~capacity:4 () in
  Trace.install r;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      for i = 0 to 9 do
        Trace.event (Printf.sprintf "e%d" i)
      done);
  Alcotest.(check int) "ring holds capacity" 4 (Trace.recorded r);
  Alcotest.(check int) "total counts evictions" 10 (Trace.total r);
  Alcotest.(check (list string)) "oldest evicted first"
    [ "e6"; "e7"; "e8"; "e9" ]
    (List.map (fun sp -> sp.Trace.name) (Trace.spans r))

(* ----------------------- histogram bucket scheme --------------------- *)

let test_bucket_boundaries () =
  (* power-of-two buckets: 1.0 is the lower edge of its bucket *)
  let b1 = Metrics.bucket_of 1.0 in
  Alcotest.(check (float 0.)) "1.0 sits on a lower edge" 1.0
    (Metrics.bucket_lower b1);
  Alcotest.(check (float 0.)) "and its upper edge is 2" 2.0
    (Metrics.bucket_upper b1);
  Alcotest.(check int) "1.5 shares the bucket" b1 (Metrics.bucket_of 1.5);
  Alcotest.(check int) "1.999 shares the bucket" b1 (Metrics.bucket_of 1.999);
  Alcotest.(check int) "2.0 starts the next" (b1 + 1) (Metrics.bucket_of 2.0);
  Alcotest.(check int) "0.5 is one below" (b1 - 1) (Metrics.bucket_of 0.5);
  (* non-positive values land in the first bucket *)
  Alcotest.(check int) "zero in bucket 0" 0 (Metrics.bucket_of 0.);
  Alcotest.(check int) "negative in bucket 0" 0 (Metrics.bucket_of (-3.));
  (* the edges round-trip across the whole range *)
  for i = 1 to Metrics.num_buckets - 2 do
    Alcotest.(check int)
      (Printf.sprintf "lower edge of bucket %d round-trips" i)
      i
      (Metrics.bucket_of (Metrics.bucket_lower i))
  done;
  Alcotest.(check (float 0.)) "last bucket is unbounded" infinity
    (Metrics.bucket_upper (Metrics.num_buckets - 1));
  (* huge values clamp into the last bucket instead of overflowing *)
  Alcotest.(check int) "huge values clamp" (Metrics.num_buckets - 1)
    (Metrics.bucket_of 1e300)

let test_histogram_recording () =
  let h = Metrics.histogram "test_obs_hist_seconds" in
  Metrics.reset ();
  List.iter (Metrics.observe h) [ 0.25; 1.0; 1.5; 3.0 ];
  Alcotest.(check int) "count" 4 (Metrics.count h);
  Alcotest.(check (float 1e-9)) "sum" 5.75 (Metrics.sum h);
  Alcotest.(check (float 1e-9)) "mean" 1.4375 (Metrics.mean h);
  match List.assoc_opt "test_obs_hist_seconds" (Metrics.snapshot ()) with
  | Some (Metrics.Histogram_v hv) ->
    Alcotest.(check int) "view count" 4 hv.Metrics.hv_count;
    Alcotest.(check (float 0.)) "view min" 0.25 hv.Metrics.hv_min;
    Alcotest.(check (float 0.)) "view max" 3.0 hv.Metrics.hv_max;
    Alcotest.(check int) "bucket samples add up to count" 4
      (Array.fold_left (fun acc (_, n) -> acc + n) 0 hv.Metrics.hv_buckets);
    (* [1.0; 1.5] share the [1,2) bucket; its recorded bound is 2 *)
    Alcotest.(check bool) "the [1,2) bucket holds two samples" true
      (Array.exists (fun (le, n) -> le = 2.0 && n = 2) hv.Metrics.hv_buckets)
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_metrics_time_deterministic () =
  let h = Metrics.histogram "test_obs_timed_seconds" in
  Metrics.reset ();
  let clock = Clock.ticking ~start:0. ~step:0.125 () in
  Metrics.set_clock clock;
  Fun.protect ~finally:(fun () -> Metrics.set_clock Clock.system) (fun () ->
      let x = Metrics.time h (fun () -> 42) in
      Alcotest.(check int) "timed thunk's value passes through" 42 x;
      (* one read at entry, one at exit: exactly one step elapsed *)
      Alcotest.(check (float 0.)) "duration from the injected clock" 0.125
        (Metrics.sum h))

(* ------------------------------ no-op mode --------------------------- *)

let test_noop_is_allocation_free () =
  let c = Metrics.counter "test_obs_noop_total" in
  let h = Metrics.histogram "test_obs_noop_seconds" in
  Metrics.reset ();
  let v = 1.5 (* pre-boxed: keeps caller-side boxing out of the measure *) in
  Metrics.disable ();
  Fun.protect ~finally:Metrics.enable (fun () ->
      for _ = 1 to 100 do
        Metrics.incr c
      done;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Metrics.incr c;
        Metrics.add c 3;
        Metrics.observe h v;
        Trace.event "dropped" (* no recorder installed: also free *)
      done;
      let delta = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "disabled recording allocates nothing (%.0f words)" delta)
        true (delta < 10.);
      Alcotest.(check int) "nothing was recorded" 0 (Metrics.value c);
      Alcotest.(check int) "histogram untouched" 0 (Metrics.count h))

(* --------------------------- domain safety --------------------------- *)

(* Regression for the lost-update race: gauge cells and histogram
   sum/min/max were plain mutable floats, so concurrent observers could
   overwrite each other's read-modify-write. Hammer one histogram, one
   counter and one gauge from several domains and demand that not a
   single sample is lost. Every observed value is a small multiple of
   0.25, so the float sum is exact under any interleaving. *)
let test_metrics_domain_hammer () =
  let c = Metrics.counter "test_obs_hammer_total" in
  let h = Metrics.histogram "test_obs_hammer_seconds" in
  let g = Metrics.gauge "test_obs_hammer_gauge" in
  Metrics.reset ();
  let domains = 4 and iters = 25_000 in
  let worker d () =
    let v = 0.25 *. float_of_int (1 lsl d) in
    for _ = 1 to iters do
      Metrics.incr c;
      Metrics.observe h v;
      Metrics.set g (float_of_int d)
    done
  in
  let ds = Array.init domains (fun d -> Domain.spawn (worker d)) in
  Array.iter Domain.join ds;
  let total = domains * iters in
  Alcotest.(check int) "no lost counter increments" total (Metrics.value c);
  Alcotest.(check int) "no lost histogram samples" total (Metrics.count h);
  Alcotest.(check (float 0.)) "exact concurrent sum"
    (float_of_int iters *. (0.25 +. 0.5 +. 1.0 +. 2.0))
    (Metrics.sum h);
  let gv = Metrics.gauge_value g in
  Alcotest.(check bool) "gauge holds one of the written values" true
    (List.exists (fun d -> gv = float_of_int d) [ 0; 1; 2; 3 ]);
  match List.assoc_opt "test_obs_hammer_seconds" (Metrics.snapshot ()) with
  | Some (Metrics.Histogram_v hv) ->
    Alcotest.(check (float 0.)) "min survived" 0.25 hv.Metrics.hv_min;
    Alcotest.(check (float 0.)) "max survived" 2.0 hv.Metrics.hv_max;
    Alcotest.(check int) "bucket totals add up" total
      (Array.fold_left (fun acc (_, n) -> acc + n) 0 hv.Metrics.hv_buckets);
    (* the four values land in four distinct buckets, iters each *)
    Alcotest.(check bool) "every occupied bucket is complete" true
      (Array.for_all (fun (_, n) -> n = 0 || n = iters) hv.Metrics.hv_buckets)
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* The trace recorder's domain-safety contract: concurrent domains share
   the ring (no span lost, ids unique) while each nests under its own
   open-span stack — an inner span opened on domain d must be parented to
   an outer span of d, never to a concurrent domain's span. *)
let test_trace_domain_hammer () =
  let domains = 4 and iters = 2_000 in
  let r = Trace.create ~capacity:(domains * iters * 3) () in
  Trace.install r;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let worker d () =
        let tag = [ ("domain", string_of_int d) ] in
        for _ = 1 to iters do
          Trace.with_span "outer" ~attrs:tag (fun () ->
              Trace.with_span "inner" ~attrs:tag (fun () -> ());
              Trace.event "mark" ~attrs:tag)
        done
      in
      let ds = Array.init domains (fun d -> Domain.spawn (worker d)) in
      Array.iter Domain.join ds);
  let spans = Trace.spans r in
  let expected = domains * iters * 3 in
  Alcotest.(check int) "no span lost" expected (Trace.total r);
  Alcotest.(check int) "ring held everything" expected (List.length spans);
  let ids = Hashtbl.create expected in
  List.iter (fun sp -> Hashtbl.replace ids sp.Trace.id sp) spans;
  Alcotest.(check int) "ids unique" expected (Hashtbl.length ids);
  List.iter
    (fun sp ->
      let dom = List.assoc "domain" sp.Trace.attrs in
      match (sp.Trace.name, sp.Trace.parent) with
      | "outer", p ->
        Alcotest.(check (option int)) "outer is a root" None p
      | ("inner" | "mark"), Some p ->
        let parent = Hashtbl.find ids p in
        Alcotest.(check string) "nested under own domain's outer" "outer"
          parent.Trace.name;
        Alcotest.(check string) "parent on same domain" dom
          (List.assoc "domain" parent.Trace.attrs)
      | name, None -> Alcotest.failf "%s has no parent" name
      | name, _ -> Alcotest.failf "unexpected span %s" name)
    spans

(* ------------------------- deterministic traces ---------------------- *)

(* One chaos round: seeded faults rolled over a fixed frame sequence
   under a manual clock. Everything feeding the trace is deterministic,
   so the exported JSONL must be byte-identical across runs. *)
let chaos_jsonl () =
  let clock = Clock.manual ~start:42. () in
  with_recorder ~clock @@ fun r ->
  let faults =
    Faults.create ~seed:"obs-deterministic"
      { Faults.none with Faults.p_drop = 0.3; Faults.p_corrupt = 0.2 }
  in
  let frame = Bytes.make 32 'x' in
  Trace.with_span "chaos" (fun () ->
      for i = 1 to 50 do
        Clock.advance clock 0.01;
        (match Faults.decide faults frame with
        | Faults.Deliver _ -> ()
        | Faults.Drop | Faults.Disconnect | Faults.Crash -> ());
        if i mod 10 = 0 then Trace.event "checkpoint"
      done);
  Trace.to_jsonl r

let test_deterministic_trace () =
  let a = chaos_jsonl () in
  let b = chaos_jsonl () in
  Alcotest.(check string) "two seeded chaos runs export identical JSONL" a b;
  Alcotest.(check bool) "the chaos actually injected faults" true
    (contains ~affix:"\"fault\"" a)

(* ------------------- percentile estimation ---------------------------- *)

let histogram_view name =
  match List.assoc_opt name (Metrics.snapshot ()) with
  | Some (Metrics.Histogram_v hv) -> hv
  | _ -> Alcotest.failf "histogram %s missing from snapshot" name

let test_percentiles () =
  let h = Metrics.histogram "test_obs_pct_seconds" in
  Metrics.reset ();
  Alcotest.(check (option (float 0.)))
    "empty histogram has no percentiles" None
    (Metrics.percentile (histogram_view "test_obs_pct_seconds") 0.5);
  (* a single repeated value: every quantile clamps to it *)
  List.iter (Metrics.observe h) [ 1.5; 1.5; 1.5 ];
  let hv = histogram_view "test_obs_pct_seconds" in
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "point mass: q=%.2f" q)
        (Some 1.5) (Metrics.percentile hv q))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  (* a bimodal distribution: quantiles are monotone, bounded by min/max,
     and the median sits in the low mode (90% of mass) while p99 sits in
     the high mode *)
  Metrics.reset ();
  for _ = 1 to 90 do
    Metrics.observe h 0.25
  done;
  for _ = 1 to 10 do
    Metrics.observe h 4.0
  done;
  let hv = histogram_view "test_obs_pct_seconds" in
  let pct q =
    match Metrics.percentile hv q with
    | Some v -> v
    | None -> Alcotest.failf "no percentile at %.2f" q
  in
  let p50 = pct 0.5 and p95 = pct 0.95 and p99 = pct 0.99 in
  Alcotest.(check bool) "p50 within [min,max]" true
    (p50 >= hv.Metrics.hv_min && p50 <= hv.Metrics.hv_max);
  Alcotest.(check bool) "monotone p50 <= p95 <= p99" true
    (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "median in the low mode" true (p50 < 1.0);
  Alcotest.(check bool) "p99 in the high mode" true (p99 > 1.0);
  Alcotest.(check (float 0.)) "q=1 clamps to max" hv.Metrics.hv_max (pct 1.0)

let test_percentile_degenerate_views () =
  (* a snapshot racing a concurrent observe can publish a partial view:
     the count already bumped but the bucket (or the min/max cells) not
     yet. percentile must answer None for these — never the
     [neg_infinity] sentinel or an interpolated value below any sample *)
  let partial =
    {
      Metrics.hv_count = 1;
      hv_sum = 0.5;
      hv_min = infinity;
      hv_max = neg_infinity;
      hv_buckets = [||];
    }
  in
  Alcotest.(check (option (float 0.)))
    "count without buckets has no percentiles" None
    (Metrics.percentile partial 0.5);
  let no_extrema =
    { partial with Metrics.hv_buckets = [| (1.0, 1) |] }
  in
  Alcotest.(check (option (float 0.)))
    "buckets without finite min/max have no percentiles" None
    (Metrics.percentile no_extrema 0.99);
  (* single-bucket point mass: the exact value, not a point interpolated
     below it inside the power-of-two bucket *)
  let point =
    {
      Metrics.hv_count = 3;
      hv_sum = 2.1;
      hv_min = 0.7;
      hv_max = 0.7;
      hv_buckets = [| (1.0, 3) |];
    }
  in
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "single-bucket point mass: q=%.2f" q)
        (Some 0.7)
        (Metrics.percentile point q))
    [ 0.0; 0.5; 1.0 ]

(* ----------------- cross-process context & merging -------------------- *)

let test_context_roundtrip () =
  with_recorder @@ fun _r ->
  Alcotest.(check bool) "no context outside a span" true
    (Trace.context () = None);
  Trace.with_span "root" @@ fun () ->
  let c =
    match Trace.context () with
    | Some c -> c
    | None -> Alcotest.fail "no context inside an open span"
  in
  let s = Trace.context_to_string c in
  Alcotest.(check bool) "wire form is one line" false (String.contains s '\n');
  (match Trace.context_of_string s with
  | Some c' ->
    Alcotest.(check string) "trace survives" c.Trace.ctx_trace c'.Trace.ctx_trace;
    Alcotest.(check string) "parent survives" c.Trace.ctx_parent
      c'.Trace.ctx_parent
  | None -> Alcotest.fail "context failed to parse back");
  Alcotest.(check bool) "empty input rejected" true
    (Trace.context_of_string "" = None);
  Alcotest.(check bool) "spaceless input rejected" true
    (Trace.context_of_string "noseparator" = None)

let test_merge_ancestry () =
  (* one manual clock across two recorders: the "client" process opens a
     submission span whose wire context the "server" process picks up;
     the merged dump must parent the server's span under the client's *)
  let clock = Clock.manual ~start:1. () in
  let a = Trace.create ~clock ~capacity:64 ~origin:"client" () in
  let b = Trace.create ~clock ~capacity:64 ~origin:"server" () in
  Trace.install a;
  let ctx = ref None in
  Trace.with_span "net.submit" (fun () ->
      Clock.advance clock 0.5;
      ctx := Trace.context ());
  Trace.uninstall ();
  Trace.install b;
  Trace.with_span_ctx ?ctx:!ctx "server.admit" (fun () ->
      Clock.advance clock 0.25;
      Trace.with_span "server.verify" (fun () -> Clock.advance clock 0.25));
  Trace.uninstall ();
  let merged = Trace.merge [ Trace.to_jsonl a; Trace.to_jsonl b ] in
  let find name =
    match List.find_opt (fun m -> m.Trace.m_name = name) merged with
    | Some m -> m
    | None -> Alcotest.failf "span %s missing from merge" name
  in
  let submit = find "net.submit" in
  let admit = find "server.admit" in
  let verify = find "server.verify" in
  Alcotest.(check (option string))
    "remote parent resolved across processes" (Some submit.Trace.m_id)
    admit.Trace.m_parent;
  Alcotest.(check (option string))
    "local nesting preserved inside the server" (Some admit.Trace.m_id)
    verify.Trace.m_parent;
  Alcotest.(check string) "one trace id end to end" submit.Trace.m_trace
    verify.Trace.m_trace;
  (* causal order: every parent precedes its children *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      (match m.Trace.m_parent with
      | Some p when not (Hashtbl.mem seen p) ->
        Alcotest.failf "%s emitted before its parent" m.Trace.m_name
      | _ -> ());
      Hashtbl.replace seen m.Trace.m_id ())
    merged;
  (* a dump torn mid-line (a SIGKILLed process) degrades, never raises *)
  let torn = String.sub (Trace.to_jsonl b) 0 20 in
  let partial = Trace.merge [ Trace.to_jsonl a; torn; "not json\n" ] in
  Alcotest.(check int) "torn dumps skip bad lines" 1 (List.length partial)

(* ---------------------- unified byte accounting ---------------------- *)

(* The ISSUE-4 contract: the Obs counters and the legacy per-object
   accessors are two views of the same accounting, and must agree
   exactly — uploads against [prepared.upload_bytes], server gossip
   against [Cluster.total_server_bytes]. *)
let test_byte_unification () =
  let module P = Prio.Make (Prio.F87) in
  let rng = Prio.Rng.of_string_seed "obs-bytes" in
  let l = 16 in
  let circuit =
    let b = P.Circuit.Builder.create ~num_inputs:l in
    for i = 0 to l - 1 do
      P.Circuit.Builder.assert_bit b (P.Circuit.Builder.input b i)
    done;
    P.Circuit.Builder.build b
  in
  let cluster =
    P.Cluster.create ~rng ~mode:P.Cluster.Robust_snip ~circuit ~trunc_len:l
      ~num_servers:3 ~master:(Prio.Rng.bytes rng 32) ()
  in
  let c_upload = Metrics.counter "prio_client_upload_bytes_total" in
  let c_link = Metrics.counter "prio_server_link_bytes_total" in
  let upload0 = Metrics.value c_upload and link0 = Metrics.value c_link in
  let encodings =
    List.init 6 (fun _ ->
        Array.init l (fun _ -> P.Field.of_int (Prio.Rng.int_below rng 2)))
  in
  let prepared = P.Pipeline.prepare ~rng cluster encodings in
  let accepted, _ = P.Pipeline.process cluster prepared in
  Alcotest.(check int) "all submissions accepted" 6 accepted;
  Alcotest.(check int) "upload counter equals legacy upload_bytes"
    prepared.P.Pipeline.upload_bytes
    (Metrics.value c_upload - upload0);
  Alcotest.(check int) "link counter equals legacy total_server_bytes"
    (P.Cluster.total_server_bytes cluster)
    (Metrics.value c_link - link0)

(* ------------------------------ exporters ---------------------------- *)

let test_report_formats () =
  let c = Metrics.counter "test_obs_report_total" in
  let h = Metrics.histogram "test_obs_report_seconds" in
  Metrics.reset ();
  Metrics.add c 7;
  Metrics.observe h 1.5;
  let prom = Report.prometheus () in
  Alcotest.(check bool) "prometheus has the counter" true
    (contains ~affix:"test_obs_report_total 7" prom);
  Alcotest.(check bool) "prometheus histograms are cumulative to +Inf" true
    (contains ~affix:"test_obs_report_seconds_bucket{le=\"+Inf\"} 1" prom);
  let json = Report.json () in
  Alcotest.(check bool) "json has the counter" true
    (contains ~affix:"\"test_obs_report_total\":7" json)

let test_report_zeroed_registry () =
  let _c = Metrics.counter "test_obs_zero_total" in
  let _h = Metrics.histogram "test_obs_zero_seconds" in
  Metrics.reset ();
  let prom = Report.prometheus () in
  Alcotest.(check bool) "zeroed counter renders" true
    (contains ~affix:"test_obs_zero_total 0" prom);
  Alcotest.(check bool) "sample-less histogram renders a +Inf bucket" true
    (contains ~affix:"test_obs_zero_seconds_bucket{le=\"+Inf\"} 0" prom);
  Alcotest.(check bool) "sample-less histogram has count 0" true
    (contains ~affix:"test_obs_zero_seconds_count 0" prom);
  Alcotest.(check bool) "JSON renders null percentiles with no samples" true
    (contains ~affix:"\"p50\":null" (Report.json ()));
  Alcotest.(check bool) "summary still renders the empty histogram" true
    (contains ~affix:"test_obs_zero_seconds" (Report.summary ()))

let test_report_json_escaping () =
  (* names are normally clean identifiers, but the registry does not
     enforce that — the JSON exporter must stay well-formed anyway *)
  let c = Metrics.counter "test_obs \"quoted\\slashed\" total" in
  Metrics.reset ();
  Metrics.add c 3;
  Alcotest.(check bool) "quote and backslash escaped in JSON" true
    (contains
       ~affix:"\"test_obs \\\"quoted\\\\slashed\\\" total\":3"
       (Report.json ()))

let test_report_bucket_rendering () =
  let h = Metrics.histogram "test_obs_cum_seconds" in
  Metrics.reset ();
  List.iter (Metrics.observe h) [ 0.3; 0.4; 1.5; 100.0 ];
  let prom = Report.prometheus () in
  Alcotest.(check bool) "TYPE line" true
    (contains ~affix:"# TYPE test_obs_cum_seconds histogram" prom);
  let bucket_counts =
    List.filter_map
      (fun l ->
        let pfx = "test_obs_cum_seconds_bucket{le=" in
        if
          String.length l > String.length pfx
          && String.sub l 0 (String.length pfx) = pfx
        then
          match String.rindex_opt l ' ' with
          | Some i ->
            int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      (String.split_on_char '\n' prom)
  in
  Alcotest.(check bool) "several buckets rendered" true
    (List.length bucket_counts >= 2);
  Alcotest.(check (list int))
    "cumulative bucket counts are nondecreasing" bucket_counts
    (List.sort compare bucket_counts);
  Alcotest.(check int) "cumulative counts end at the sample count" 4
    (List.nth bucket_counts (List.length bucket_counts - 1));
  Alcotest.(check bool) "sum line rendered" true
    (contains ~affix:"test_obs_cum_seconds_sum " prom)

let test_report_json_roundtrip () =
  let c = Metrics.counter "test_obs_rt_total" in
  let g = Metrics.gauge "test_obs_rt_gauge" in
  let h = Metrics.histogram "test_obs_rt_seconds" in
  Metrics.reset ();
  Metrics.add c 41;
  Metrics.set g 2.5;
  List.iter (Metrics.observe h) [ 0.25; 0.5; 1.0 ];
  let json = Report.json () in
  Alcotest.(check bool) "counter value round-trips" true
    (contains ~affix:"\"test_obs_rt_total\":41" json);
  Alcotest.(check bool) "gauge value round-trips" true
    (contains ~affix:"\"test_obs_rt_gauge\":2.5" json);
  Alcotest.(check bool) "histogram header round-trips" true
    (contains ~affix:"\"test_obs_rt_seconds\":{\"count\":3,\"sum\":1.75" json);
  (* the JSON percentiles agree exactly with the in-process estimator *)
  let hv = histogram_view "test_obs_rt_seconds" in
  List.iter
    (fun (label, q) ->
      match Metrics.percentile hv q with
      | None -> Alcotest.failf "no %s on a populated histogram" label
      | Some v ->
        let lit =
          if Float.is_integer v && Float.abs v < 1e15 then
            Printf.sprintf "%.0f" v
          else Printf.sprintf "%.9g" v
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s printed from the estimator" label)
          true
          (contains ~affix:(Printf.sprintf "\"%s\":%s" label lit) json))
    [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ];
  Alcotest.(check bool) "buckets rendered as [le,count] pairs" true
    (contains ~affix:"\"buckets\":[[" json)

let test_report_json_pinned () =
  (* a fixed registry's members, byte for byte as the exporter has always
     printed them (snapshot order is by name, so they sit contiguously) *)
  let a = Metrics.counter "test_obs_pin_a_total" in
  let b = Metrics.gauge "test_obs_pin_b_gauge" in
  let c = Metrics.histogram "test_obs_pin_c_seconds" in
  let d = Metrics.counter "test_obs_pin_d \"q\\\n\001" in
  let _e = Metrics.histogram "test_obs_pin_e_seconds" in
  Metrics.reset ();
  Metrics.add a 7;
  Metrics.set b 0.1;
  List.iter (Metrics.observe c) [ 0.25; 0.5; 3.0 ];
  Metrics.add d 2;
  let pinned =
    {|"test_obs_pin_a_total":7,"test_obs_pin_b_gauge":0.1,|}
    ^ {|"test_obs_pin_c_seconds":{"count":3,"sum":3.75,"min":0.25,"max":3,|}
    ^ {|"p50":0.75,"p95":3,"p99":3,"buckets":[[0.5,1],[1,1],[4,1]]},|}
    ^ {|"test_obs_pin_d \"q\\\n\u0001":2,|}
    ^ {|"test_obs_pin_e_seconds":{"count":0,"sum":0,"min":null,"max":null,|}
    ^ {|"p50":null,"p95":null,"p99":null,"buckets":[]}|}
  in
  let json = Report.json () in
  Alcotest.(check bool) "pinned members present verbatim" true
    (contains ~affix:pinned json);
  Alcotest.(check bool) "the whole report parses" true
    (match Json.parse json with Json.Obj _ -> true | _ -> false)

(* -------------------------------- json ------------------------------- *)

let test_json_escape_roundtrip () =
  let st = Random.State.make [| 20 |] in
  for _ = 1 to 500 do
    let s =
      String.init (Random.State.int st 40) (fun _ ->
          Char.chr (Random.State.int st 0x80))
    in
    match Json.parse ("\"" ^ Json.escape s ^ "\"") with
    | Json.Str s' when String.equal s s' -> ()
    | _ -> Alcotest.failf "escape/parse lost %S" s
  done

let test_json_errors () =
  List.iter
    (fun (what, doc) ->
      match Json.parse doc with
      | exception Json.Error _ -> ()
      | _ -> Alcotest.failf "%s accepted: %S" what doc)
    [
      ("unterminated string", {|{"a":"abc|});
      ("trailing garbage", {|{"a":1} x|});
      ("bad \\u escape", {|"\u12g4"|});
      ("short \\u escape", {|"\u12"|});
    ];
  Alcotest.(check bool) "nested document" true
    (Json.parse {| {"a":[1,true,null,"x\ty"],"b":{}} |}
    = Json.Obj
        [
          ( "a",
            Json.Arr
              [ Json.Num 1.; Json.Bool true; Json.Null; Json.Str "x\ty" ] );
          ("b", Json.Obj []);
        ])

let () =
  Alcotest.run "obs"
    [
      ("clock", [ Alcotest.test_case "clocks" `Quick test_clocks ]);
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "deterministic under seeded chaos" `Quick
            test_deterministic_trace;
          Alcotest.test_case "multi-domain nesting stays domain-local" `Quick
            test_trace_domain_hammer;
          Alcotest.test_case "wire context round trip" `Quick
            test_context_roundtrip;
          Alcotest.test_case "cross-process merge ancestry" `Quick
            test_merge_ancestry;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "histogram recording" `Quick
            test_histogram_recording;
          Alcotest.test_case "time under an injected clock" `Quick
            test_metrics_time_deterministic;
          Alcotest.test_case "no-op mode allocates nothing" `Quick
            test_noop_is_allocation_free;
          Alcotest.test_case "multi-domain hammer loses nothing" `Quick
            test_metrics_domain_hammer;
          Alcotest.test_case "percentile estimation" `Quick test_percentiles;
          Alcotest.test_case "percentile degenerate views" `Quick
            test_percentile_degenerate_views;
        ] );
      ( "integration",
        [
          Alcotest.test_case "unified byte accounting" `Quick
            test_byte_unification;
          Alcotest.test_case "report formats" `Quick test_report_formats;
          Alcotest.test_case "zeroed registry rendering" `Quick
            test_report_zeroed_registry;
          Alcotest.test_case "JSON name escaping" `Quick
            test_report_json_escaping;
          Alcotest.test_case "cumulative bucket rendering" `Quick
            test_report_bucket_rendering;
          Alcotest.test_case "JSON percentile round trip" `Quick
            test_report_json_roundtrip;
          Alcotest.test_case "JSON bytes pinned" `Quick
            test_report_json_pinned;
        ] );
      ( "json",
        [
          Alcotest.test_case "escape then parse is identity" `Quick
            test_json_escape_roundtrip;
          Alcotest.test_case "malformed input raises" `Quick test_json_errors;
        ] );
    ]

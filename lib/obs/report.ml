(** Render the {!Metrics} registry as Prometheus exposition text or a
    JSON snapshot. Pure string producers — callers decide where the
    report goes (stdout in [prio_cli metrics], a file in the bench
    harness), keeping this library free of I/O. *)

let float_lit f =
  if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prometheus_type = function
  | Metrics.Counter_v _ -> "counter"
  | Metrics.Gauge_v _ -> "gauge"
  | Metrics.Histogram_v _ -> "histogram"

let prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name (prometheus_type v));
      match v with
      | Metrics.Counter_v n ->
        Buffer.add_string buf (Printf.sprintf "%s %d\n" name n)
      | Metrics.Gauge_v x ->
        Buffer.add_string buf (Printf.sprintf "%s %s\n" name (float_lit x))
      | Metrics.Histogram_v h ->
        let cum = ref 0 in
        Array.iter
          (fun (le, c) ->
            cum := !cum + c;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (float_lit le)
                 !cum))
          h.Metrics.hv_buckets;
        if
          Array.length h.Metrics.hv_buckets = 0
          || fst h.Metrics.hv_buckets.(Array.length h.Metrics.hv_buckets - 1)
             <> infinity
        then
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.Metrics.hv_count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" name (float_lit h.Metrics.hv_sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count %d\n" name h.Metrics.hv_count))
    (Metrics.snapshot ());
  Buffer.contents buf

let json_float f =
  (* JSON has no Inf literal; clamp to null which consumers treat as absent *)
  if Float.is_finite f then
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f
  else "null"

let json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":" (Json.escape name));
      match v with
      | Metrics.Counter_v n -> Buffer.add_string buf (string_of_int n)
      | Metrics.Gauge_v x -> Buffer.add_string buf (json_float x)
      | Metrics.Histogram_v h ->
        let pct q =
          match Metrics.percentile h q with
          | Some v -> json_float v
          | None -> "null"
        in
        Buffer.add_string buf
          (Printf.sprintf
             "{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"buckets\":["
             h.Metrics.hv_count (json_float h.Metrics.hv_sum)
             (json_float h.Metrics.hv_min) (json_float h.Metrics.hv_max)
             (pct 0.5) (pct 0.95) (pct 0.99));
        Array.iteri
          (fun j (le, c) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "[%s,%d]" (json_float le) c))
          h.Metrics.hv_buckets;
        Buffer.add_string buf "]}")
    (Metrics.snapshot ());
  Buffer.add_string buf "}";
  Buffer.contents buf

(* Human view: one line per metric, histograms summarized by their
   percentile estimates instead of raw bucket counts. *)
let summary () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter_v n ->
        Buffer.add_string buf (Printf.sprintf "counter    %-44s %d\n" name n)
      | Metrics.Gauge_v x ->
        Buffer.add_string buf
          (Printf.sprintf "gauge      %-44s %s\n" name (float_lit x))
      | Metrics.Histogram_v h ->
        let pct q =
          match Metrics.percentile h q with
          | Some v -> float_lit v
          | None -> "-"
        in
        Buffer.add_string buf
          (Printf.sprintf
             "histogram  %-44s count=%d mean=%s p50=%s p95=%s p99=%s max=%s\n"
             name h.Metrics.hv_count
             (float_lit
                (if h.Metrics.hv_count = 0 then 0.
                 else h.Metrics.hv_sum /. float_of_int h.Metrics.hv_count))
             (pct 0.5) (pct 0.95) (pct 0.99)
             (if h.Metrics.hv_count = 0 then "-" else float_lit h.Metrics.hv_max)))
    (Metrics.snapshot ());
  Buffer.contents buf

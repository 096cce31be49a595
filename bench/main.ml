(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6). Run with no argument for the full sweep, or with one of
   table2 table3 fig4 fig5 fig6 fig7 fig8 table9 ablation compression net
   parallel micro
   to select a single experiment. EXPERIMENTS.md records paper-vs-measured
   numbers for each.

   Absolute numbers differ from the paper (different hardware, pure OCaml
   vs Go+FLINT, simulated network); the comparisons the paper draws — which
   scheme wins, by roughly what factor, and how costs scale — are what these
   benchmarks reproduce. *)

open Core
module B = Prio.Bigint
module Rng = Prio.Rng
module Json = Prio.Obs_json

(* Monotonic nanoseconds: the µs-scale [*_min_s] rows need finer ticks
   than the microsecond wall clock of [Unix.gettimeofday]. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** Timing statistics over repeated calls of one workload. *)
type stats = {
  mean : float;  (** seconds per call *)
  count : int;  (** calls sampled *)
  min_s : float;  (** fastest single call, seconds *)
  max_s : float;  (** slowest single call, seconds *)
  total : float;  (** wall-clock seconds spent sampling *)
}

(** Sample [f] warm-started: at least [min_reps] calls and [min_time]
    seconds of sampling (the paper averages over 8 runs). *)
let measure_stats ?(min_time = 0.2) ?(min_reps = 3) f =
  ignore (f ());
  let t0 = now () in
  let reps = ref 0 and mn = ref infinity and mx = ref neg_infinity in
  let elapsed = ref 0. in
  while !reps < min_reps || !elapsed < min_time do
    let s0 = now () in
    ignore (f ());
    let dt = now () -. s0 in
    if dt < !mn then mn := dt;
    if dt > !mx then mx := dt;
    incr reps;
    elapsed := now () -. t0
  done;
  let n = !reps in
  {
    mean = !elapsed /. float_of_int n;
    count = n;
    min_s = !mn;
    max_s = !mx;
    total = !elapsed;
  }

(** [measure_stats] collapsed to its mean. *)
let measure ?min_time ?min_reps f = (measure_stats ?min_time ?min_reps f).mean

(* ---------------------------------------------------------------------- *)
(* Machine-readable results. With [--json <path>] (BENCH_PRIO.json by     *)
(* convention) the harness writes every record the selected experiments   *)
(* emitted, plus the Obs metrics snapshot, as one JSON document — see     *)
(* docs/OBSERVABILITY.md for the schema.                                  *)
(* ---------------------------------------------------------------------- *)

type jfield = I of int | Fl of float | S of string | B of bool

let json_records : (string * jfield) list list ref = ref []

(** Emit one result row: the numbers a CI check or plot script would
    want, identified by [experiment] and [name]. Every row carries the
    detected core count so result files from different machines compare
    fairly; experiments that already report it keep their own value. *)
let record ~experiment ~name fields =
  let fields =
    if List.mem_assoc "cores" fields then fields
    else ("cores", I (Domain.recommended_domain_count ())) :: fields
  in
  let fields =
    (* a single-core box cannot show parallel speedups: stamp the rows
       so plot scripts and CI checks can exclude or annotate them *)
    if Domain.recommended_domain_count () = 1 then
      ("single_core", B true) :: fields
    else fields
  in
  json_records :=
    (("experiment", S experiment) :: ("name", S name) :: fields)
    :: !json_records

let jfield_string = function
  | I n -> string_of_int n
  | Fl f -> if Float.is_finite f then Printf.sprintf "%.9g" f else "null"
  | S s -> Printf.sprintf "\"%s\"" (Json.escape s)
  | B b -> string_of_bool b

let write_json path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\n  \"schema\": \"prio-bench/1\",\n  \"records\": [\n";
  let rows = List.rev !json_records in
  let last = List.length rows - 1 in
  List.iteri
    (fun i fields ->
      let body =
        List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (jfield_string v))
          fields
        |> String.concat ", "
      in
      output_string oc
        (Printf.sprintf "    {%s}%s\n" body (if i = last then "" else ",")))
    rows;
  output_string oc "  ],\n  \"metrics\": ";
  output_string oc (Prio.Obs_report.json ());
  output_string oc "\n}\n"

(* ---------------------------------------------------------------------- *)
(* [--check <path>]: tolerance-band regression guard against a committed  *)
(* result file. Strings and bools must match exactly; numbers must agree  *)
(* within a multiplicative band (larger/smaller <= 1 + tolerance), so     *)
(* run-to-run timing noise passes but order-of-magnitude regressions —    *)
(* and any shape drift: missing records, missing fields, changed          *)
(* parameters — trip the guard. Records are matched by                    *)
(* (experiment, name); only experiments that ran this invocation are      *)
(* compared, so `streaming --check BENCH_PRIO.json` checks just the       *)
(* streaming rows.                                                        *)
(* ---------------------------------------------------------------------- *)

let check_against path ~tolerance =
  let doc =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Json.parse s
  in
  let committed =
    match Json.member "records" doc with
    | Some (Json.Arr rows) ->
      List.filter_map (function Json.Obj kvs -> Some kvs | _ -> None) rows
    | _ -> raise (Json.Error (path ^ ": no \"records\" array"))
  in
  let fresh = List.rev !json_records in
  let fresh_key fields =
    match (List.assoc_opt "experiment" fields, List.assoc_opt "name" fields) with
    | Some (S e), Some (S n) -> Some (e, n)
    | _ -> None
  in
  let ran_experiments =
    List.sort_uniq compare (List.filter_map fresh_key fresh |> List.map fst)
  in
  let committed_key kvs =
    match (List.assoc_opt "experiment" kvs, List.assoc_opt "name" kvs) with
    | Some (Json.Str e), Some (Json.Str n) -> Some (e, n)
    | _ -> None
  in
  let failures = ref [] in
  let complain fmt =
    Printf.ksprintf (fun m -> failures := m :: !failures) fmt
  in
  let band_ok a b =
    a = b
    || a <> 0. && b <> 0.
       && a < 0. = (b < 0.)
       &&
       let a = Float.abs a and b = Float.abs b in
       Float.max a b /. Float.min a b <= 1. +. tolerance
  in
  let check_field ~exp ~name k reference measured =
    match (reference, measured) with
    | Json.Str r, S m ->
      if r <> m then
        complain "%s/%s %s: %S, reference says %S" exp name k m r
    | Json.Bool r, B m ->
      if r <> m then
        complain "%s/%s %s: %b, reference says %b" exp name k m r
    | Json.Num r, (I _ | Fl _) ->
      let m = match measured with I i -> float_of_int i | Fl f -> f | _ -> 0. in
      if not (band_ok r m) then
        complain "%s/%s %s: %.6g, outside x%.2f band of reference %.6g" exp
          name k m (1. +. tolerance) r
    | Json.Null, Fl f when not (Float.is_finite f) -> ()
    | _ ->
      complain "%s/%s %s: kind differs from reference" exp name k
  in
  let compared = ref 0 in
  let skipped = ref 0 in
  (* worst-single-call statistics are dominated by scheduler and GC
     noise (one pause blows any reasonable band), and repetition counts
     are just the inverse of per-call latency under the fixed measuring
     budget: their presence is still required, but their values are not
     pinned *)
  let unpinnable k =
    let has_suffix suffix =
      let lk = String.length k and ls = String.length suffix in
      lk >= ls && String.sub k (lk - ls) ls = suffix
    in
    has_suffix "_max_s" || has_suffix "_count"
  in
  List.iter
    (fun kvs ->
      match committed_key kvs with
      | Some (exp, name) when List.mem exp ran_experiments -> (
        match
          List.find_opt (fun f -> fresh_key f = Some (exp, name)) fresh
        with
        | None ->
          complain "%s/%s: in the reference but not produced by this run" exp
            name
        | Some fields ->
          incr compared;
          List.iter
            (fun (k, reference) ->
              if k <> "experiment" && k <> "name" then
                match List.assoc_opt k fields with
                | None ->
                  complain "%s/%s: field %s missing from this run" exp name k
                | Some measured ->
                  if unpinnable k then incr skipped
                  else check_field ~exp ~name k reference measured)
            kvs)
      | _ -> ())
    committed;
  (* fresh rows absent from the reference are drift too: the reference is
     stale and needs a --json refresh *)
  List.iter
    (fun fields ->
      match fresh_key fields with
      | Some key
        when not (List.exists (fun kvs -> committed_key kvs = Some key) committed)
        ->
        complain "%s/%s: produced by this run but not in %s (refresh with --json)"
          (fst key) (snd key) path
      | _ -> ())
    fresh;
  match List.rev !failures with
  | [] ->
    Printf.printf
      "\n--check %s: %d records within the x%.2f band (%d noise-dominated \
       fields present but not value-pinned)\n"
      path !compared (1. +. tolerance) !skipped;
    true
  | fs ->
    Printf.printf "\n--check %s FAILED (%d violations):\n" path (List.length fs);
    List.iter (fun m -> Printf.printf "  %s\n" m) fs;
    false

let pretty_time s =
  if s < 1e-6 then Printf.sprintf "%.0f ns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1f µs" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.1f ms" (s *. 1e3)
  else Printf.sprintf "%.2f s" s

let pretty_bytes b =
  if b < 1024 then Printf.sprintf "%d B" b
  else if b < 1024 * 1024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1024.)
  else Printf.sprintf "%.2f MiB" (float_of_int b /. 1048576.)

let header title =
  Printf.printf "\n=== %s ===\n%!" title

(* ---------------------------------------------------------------------- *)
(* Workloads, generic over the field.                                      *)
(* ---------------------------------------------------------------------- *)

module Work (F : Prio.Field_intf.S) = struct
  module P = Prio.Make (F)
  module C = P.Circuit

  let rng = Rng.of_string_seed ("bench-" ^ F.name)
  let master = Rng.bytes rng 32

  (* The hand-built circuits below are optimized once, here where they
     are built, as an AFE's are by [Afe.compile]: every layer after this
     proves and verifies them as given. *)
  let build b = P.Circuit_opt.optimize (C.Builder.build b)

  (* Valid: every coordinate is a bit (the Figure 4/5 workload). *)
  let bits_circuit l =
    let b = C.Builder.create ~num_inputs:l in
    for i = 0 to l - 1 do
      C.Builder.assert_bit b (C.Builder.input b i)
    done;
    build b

  let bits_encoding l = Array.init l (fun _ -> F.of_int (Rng.int_below rng 2))

  (* L four-bit integers summed at the servers (the Table 3 workload):
     per integer, a value slot plus its bit decomposition. *)
  let multi_sum_circuit ~count ~bits =
    let b = C.Builder.create ~num_inputs:(count * (bits + 1)) in
    for k = 0 to count - 1 do
      let base = k * (bits + 1) in
      let value = C.Builder.input b base in
      let bit_wires = List.init bits (fun i -> C.Builder.input b (base + 1 + i)) in
      List.iter (C.Builder.assert_bit b) bit_wires;
      C.Builder.assert_binary_decomposition b ~value ~bits:bit_wires
    done;
    build b

  let multi_sum_encoding ~count ~bits =
    Array.concat
      (List.init count (fun _ ->
           let x = Rng.int_below rng (1 lsl bits) in
           Array.append [| F.of_int x |]
             (Array.init bits (fun i -> F.of_int ((x lsr i) land 1)))))

  (* One-hot survey blocks (Beck-21, PCRI-78 of Figure 7). *)
  let survey_circuit ~questions ~scale =
    let b = C.Builder.create ~num_inputs:(questions * scale) in
    for q = 0 to questions - 1 do
      C.Builder.assert_one_hot b
        (List.init scale (fun a -> C.Builder.input b ((q * scale) + a)))
    done;
    build b

  let survey_encoding ~questions ~scale =
    Array.concat
      (List.init questions (fun _ ->
           let a = Rng.int_below rng scale in
           Array.init scale (fun i -> if i = a then F.one else F.zero)))

  (* Client-side cost of a complete submission (encode is given; this
     times share + prove + seal). *)
  let client_submission_seconds ~mode encoding =
    measure (fun () ->
        P.Client.submit ~rng ~mode ~num_servers:5 ~client_id:0 ~master encoding)

  (* Build a cluster, pre-generate [n] submissions, and measure server-side
     serial processing seconds. *)
  let server_run ~mode ~circuit ~trunc_len ~num_servers ~n encoding_of =
    let cluster =
      P.Cluster.create ~rng ~mode ~circuit ~trunc_len ~num_servers ~master ()
    in
    let encodings = List.init n (fun i -> encoding_of i) in
    let prepared = P.Pipeline.prepare ~rng cluster encodings in
    let accepted, secs = P.Pipeline.process cluster prepared in
    assert (accepted = n);
    (cluster, prepared, secs)
end

module W87 = Work (Prio.F87)
module W265 = Work (Prio.F265)

(* ---------------------------------------------------------------------- *)
(* Table 3: client submission time, L four-bit integers, two field sizes.  *)
(* ---------------------------------------------------------------------- *)

let table3 () =
  header "Table 3: client time (s) to generate a submission of L four-bit integers";
  let mul87 =
    let x = ref (Prio.F87.of_int 1234567) in
    measure (fun () -> x := Prio.F87.mul !x !x)
  in
  let mul265 =
    let x = ref (Prio.F265.of_int 1234567) in
    measure (fun () -> x := Prio.F265.mul !x !x)
  in
  Printf.printf "%-24s %14s %14s\n" "" "87-bit field" "265-bit field";
  Printf.printf "%-24s %14s %14s\n" "Mul. in field"
    (pretty_time mul87) (pretty_time mul265);
  List.iter
    (fun count ->
      let t87 =
        let circuit = W87.multi_sum_circuit ~count ~bits:4 in
        let enc = W87.multi_sum_encoding ~count ~bits:4 in
        W87.client_submission_seconds ~mode:(W87.P.Client.Robust_snip circuit) enc
      in
      let t265 =
        let circuit = W265.multi_sum_circuit ~count ~bits:4 in
        let enc = W265.multi_sum_encoding ~count ~bits:4 in
        W265.client_submission_seconds ~mode:(W265.P.Client.Robust_snip circuit) enc
      in
      Printf.printf "%-24s %14s %14s\n"
        (Printf.sprintf "L = 10^%d" (int_of_float (Float.round (log10 (float_of_int count)))))
        (pretty_time t87) (pretty_time t265))
    [ 10; 100; 1000 ]

(* ---------------------------------------------------------------------- *)
(* Figure 4: server throughput vs submission length, five schemes.         *)
(* ---------------------------------------------------------------------- *)

let fig4 () =
  header "Figure 4: submissions processed/s vs submission length (field elements)";
  Printf.printf "%-8s %12s %14s %10s %10s %10s\n" "L" "No privacy"
    "No robustness" "Prio" "Prio-MPC" "NIZK";
  let module W = W87 in
  let lengths = [ 16; 64; 256; 1024; 4096 ] in
  List.iter
    (fun l ->
      let n = Stdlib.max 2 (Stdlib.min 12 (2048 / l)) in
      let circuit = W.bits_circuit l in
      let rate mode num_servers =
        let _, _, secs =
          W.server_run ~mode ~circuit ~trunc_len:l ~num_servers ~n (fun _ ->
              W.bits_encoding l)
        in
        W.P.Pipeline.simulated_throughput ~num_servers ~n ~serial_seconds:secs
      in
      let no_priv = rate W.P.Cluster.No_robustness 1 in
      let no_rob = rate W.P.Cluster.No_robustness 5 in
      let prio = rate W.P.Cluster.Robust_snip 5 in
      let mpc = rate W.P.Cluster.Robust_mpc 5 in
      let nizk =
        if l > 1024 then nan
        else begin
          let module NP = Prio.Nizk_pipeline in
          let bits = Array.init l (fun _ -> Rng.int_below W.rng 2) in
          let sub = NP.client ~rng:W.rng ~bits ~s:5 in
          let secs = measure ~min_reps:1 ~min_time:0.1 (fun () ->
              assert (NP.server_process ~s:5 sub))
          in
          5. /. secs
        end
      in
      Printf.printf "%-8d %12.0f %14.0f %10.0f %10.1f %10s\n" l no_priv no_rob
        prio mpc
        (if Float.is_nan nizk then "--" else Printf.sprintf "%.2f" nizk);
      record ~experiment:"fig4" ~name:(Printf.sprintf "l%d" l)
        [
          ("l", I l);
          ("no_privacy_per_s", Fl no_priv);
          ("no_robustness_per_s", Fl no_rob);
          ("prio_per_s", Fl prio);
          ("prio_mpc_per_s", Fl mpc);
          ("nizk_per_s", Fl nizk);
        ])
    lengths;
  print_endline "(--: NIZK omitted above L=1024; its cost continues to grow linearly)"

(* ---------------------------------------------------------------------- *)
(* Figure 5: throughput vs number of servers (L = 1024 one-bit integers).  *)
(* ---------------------------------------------------------------------- *)

let fig5 () =
  header "Figure 5: submissions processed/s vs number of servers (L = 1024 bits)";
  Printf.printf "%-8s %14s %10s %10s %10s\n" "servers" "No robustness" "Prio"
    "Prio-MPC" "NIZK";
  let module W = W87 in
  let l = 1024 in
  let circuit = W.bits_circuit l in
  let n = 4 in
  List.iter
    (fun s ->
      let rate mode =
        let _, _, secs =
          W.server_run ~mode ~circuit ~trunc_len:l ~num_servers:s ~n (fun _ ->
              W.bits_encoding l)
        in
        W.P.Pipeline.simulated_throughput ~num_servers:s ~n ~serial_seconds:secs
      in
      let no_rob = rate W.P.Cluster.No_robustness in
      let prio = rate W.P.Cluster.Robust_snip in
      let mpc = rate W.P.Cluster.Robust_mpc in
      let nizk =
        if s <> 2 && s <> 5 && s <> 10 then nan
        else begin
          let module NP = Prio.Nizk_pipeline in
          let bits = Array.init l (fun _ -> Rng.int_below W.rng 2) in
          let sub = NP.client ~rng:W.rng ~bits ~s in
          let secs =
            measure ~min_reps:1 ~min_time:0.05 (fun () ->
                assert (NP.server_process ~s sub))
          in
          float_of_int s /. secs
        end
      in
      Printf.printf "%-8d %14.0f %10.0f %10.1f %10s\n" s no_rob prio mpc
        (if Float.is_nan nizk then "--" else Printf.sprintf "%.2f" nizk);
      record ~experiment:"fig5" ~name:(Printf.sprintf "s%d" s)
        [
          ("servers", I s);
          ("no_robustness_per_s", Fl no_rob);
          ("prio_per_s", Fl prio);
          ("prio_mpc_per_s", Fl mpc);
          ("nizk_per_s", Fl nizk);
        ])
    [ 2; 3; 4; 5; 6; 8; 10 ]

(* ---------------------------------------------------------------------- *)
(* Figure 6: per-server data transfer per submission vs length.            *)
(* ---------------------------------------------------------------------- *)

let fig6 () =
  header "Figure 6: non-leader per-server data transfer per submission";
  Printf.printf "%-8s %12s %12s %12s\n" "L" "Prio" "Prio-MPC" "NIZK";
  let module W = W87 in
  List.iter
    (fun l ->
      let circuit = W.bits_circuit l in
      let transfer mode =
        let cluster, _, _ =
          W.server_run ~mode ~circuit ~trunc_len:l ~num_servers:5 ~n:1 (fun _ ->
              W.bits_encoding l)
        in
        (* server 1 never led (the single submission was led by server 0) *)
        W.P.Cluster.bytes_sent cluster 1
      in
      let prio = transfer W.P.Cluster.Robust_snip in
      let mpc = transfer W.P.Cluster.Robust_mpc in
      let nizk = Prio.Nizk_pipeline.per_server_bytes ~l in
      Printf.printf "%-8d %12s %12s %12s\n" l (pretty_bytes prio)
        (pretty_bytes mpc) (pretty_bytes nizk);
      record ~experiment:"fig6" ~name:(Printf.sprintf "l%d" l)
        [
          ("l", I l);
          ("prio_bytes", I prio);
          ("prio_mpc_bytes", I mpc);
          ("nizk_bytes", I nizk);
        ])
    [ 4; 16; 64; 256; 1024; 4096; 16384 ]

(* ---------------------------------------------------------------------- *)
(* Figure 7: client encoding time across application domains.              *)
(* ---------------------------------------------------------------------- *)

type fig7_workload = {
  w_name : string;
  domain : string;
  circuit : W87.C.t;
  encoding : Prio.F87.t array;
}

let fig7_workloads () =
  let module W = W87 in
  let hist buckets =
    let circuit =
      let b = W.C.Builder.create ~num_inputs:buckets in
      W.C.Builder.assert_one_hot b (List.init buckets (fun i -> W.C.Builder.input b i));
      W.build b
    in
    let enc = Array.make buckets Prio.F87.zero in
    enc.(Rng.int_below W.rng buckets) <- Prio.F87.one;
    (circuit, enc)
  in
  let countmin depth width =
    let module CM = W.P.Afe_countmin in
    let afe = CM.count_min ~params:CM.{ depth; width } in
    (afe.W.P.Afe.circuit, afe.W.P.Afe.encode ~rng:W.rng "https://example.com")
  in
  let survey questions =
    (W.survey_circuit ~questions ~scale:4, W.survey_encoding ~questions ~scale:4)
  in
  let bits l = (W.bits_circuit l, W.bits_encoding l) in
  let linreg d b =
    let module R = W.P.Afe_regression in
    let afe = R.least_squares ~d ~bits:b in
    let features = Array.init d (fun _ -> Rng.int_below W.rng (1 lsl b)) in
    let target = Rng.int_below W.rng (1 lsl b) in
    (afe.W.P.Afe.circuit, afe.W.P.Afe.encode ~rng:W.rng R.{ features; target })
  in
  let make domain w_name (circuit, encoding) = { w_name; domain; circuit; encoding } in
  [
    make "Cell" "Geneva" (hist 64);
    make "Cell" "Seattle" (hist 868);
    make "Cell" "Chicago" (hist 2424);
    make "Cell" "London" (hist 6280);
    make "Cell" "Tokyo" (hist 8760);
    make "Browser" "LowRes" (countmin 4 20);
    make "Browser" "HighRes" (countmin 10 141);
    make "Survey" "Beck-21" (survey 21);
    make "Survey" "PCSI-78" (survey 78);
    make "Survey" "CPI-434" (bits 434);
    make "LinReg" "Heart" (linreg 13 5);
    make "LinReg" "BrCa" (linreg 30 14);
  ]

let fig7 () =
  header "Figure 7: client encoding time (s) per application domain";
  Printf.printf "%-9s %-10s %7s %10s %10s %10s %12s\n" "domain" "workload"
    "xgates" "Prio" "Prio-MPC" "NIZK" "SNARK (est.)";
  let module W = W87 in
  let exp_seconds = Prio.Snark_estimate.measure_exp_seconds ~iters:20 () in
  (* per-bit NIZK client cost, measured once and scaled linearly *)
  let nizk_sample = 128 in
  let nizk_per_bit =
    let bits = Array.init nizk_sample (fun _ -> Rng.int_below W.rng 2) in
    measure ~min_reps:1 ~min_time:0.1 (fun () ->
        Prio.Nizk_bitproof.client_encode W.rng bits)
    /. float_of_int nizk_sample
  in
  List.iter
    (fun { w_name; domain; circuit; encoding } ->
      let m = W.C.num_mul_gates circuit in
      let prio =
        W.client_submission_seconds ~mode:(W.P.Client.Robust_snip circuit) encoding
      in
      let mpc =
        W.client_submission_seconds ~mode:(W.P.Client.Robust_mpc m) encoding
      in
      let nizk = nizk_per_bit *. float_of_int m in
      let snark =
        Prio.Snark_estimate.client_seconds ~exp_seconds ~mul_gates:m
          ~l:(Array.length encoding) ~s:5 ()
      in
      Printf.printf "%-9s %-10s %7d %10s %10s %10s %12s\n" domain w_name m
        (pretty_time prio) (pretty_time mpc) (pretty_time nizk)
        (pretty_time snark))
    (fig7_workloads ())

(* ---------------------------------------------------------------------- *)
(* Figure 8: client encoding time vs regression dimension.                 *)
(* ---------------------------------------------------------------------- *)

let regression_dims = [ 2; 4; 6; 8; 10; 12 ]
let regression_bits = 14

let fig8 () =
  header "Figure 8: client time (s) to encode a d-dimensional 14-bit training example";
  Printf.printf "%-6s %12s %14s %10s\n" "d" "No privacy" "No robustness" "Prio";
  let module W = W87 in
  let module R = W.P.Afe_regression in
  List.iter
    (fun d ->
      let afe = R.least_squares ~d ~bits:regression_bits in
      let example =
        R.
          {
            features =
              Array.init d (fun _ -> Rng.int_below W.rng (1 lsl regression_bits));
            target = Rng.int_below W.rng (1 lsl regression_bits);
          }
      in
      (* no privacy: AFE encoding only (what a plaintext system uploads) *)
      let no_priv = measure (fun () -> afe.W.P.Afe.encode ~rng:W.rng example) in
      let encoding = afe.W.P.Afe.encode ~rng:W.rng example in
      let no_rob =
        W.client_submission_seconds ~mode:W.P.Client.No_robustness encoding
      in
      let prio =
        W.client_submission_seconds
          ~mode:(W.P.Client.Robust_snip afe.W.P.Afe.circuit)
          encoding
      in
      Printf.printf "%-6d %12s %14s %10s\n" d (pretty_time no_priv)
        (pretty_time no_rob) (pretty_time prio))
    regression_dims

(* ---------------------------------------------------------------------- *)
(* Table 9: five-server throughput for private d-dim regression.           *)
(* ---------------------------------------------------------------------- *)

let table9 () =
  header "Table 9: throughput (submissions/s) of a 5-server cluster, d-dim regression";
  Printf.printf "%-4s %10s %14s %10s %11s %12s %9s\n" "d" "No privacy"
    "No robustness" "Prio" "Priv. cost" "Robust. cost" "Tot. cost";
  let module W = W87 in
  let module R = W.P.Afe_regression in
  List.iter
    (fun d ->
      let afe = R.least_squares ~d ~bits:regression_bits in
      let circuit = afe.W.P.Afe.circuit in
      let trunc = afe.W.P.Afe.trunc_len in
      let encoding_of _ =
        afe.W.P.Afe.encode ~rng:W.rng
          R.
            {
              features =
                Array.init d (fun _ -> Rng.int_below W.rng (1 lsl regression_bits));
              target = Rng.int_below W.rng (1 lsl regression_bits);
            }
      in
      let n = 12 in
      let rate mode num_servers =
        let _, _, secs =
          W.server_run ~mode ~circuit ~trunc_len:trunc ~num_servers ~n encoding_of
        in
        W.P.Pipeline.simulated_throughput ~num_servers ~n ~serial_seconds:secs
      in
      let no_priv = rate W.P.Cluster.No_robustness 1 in
      let no_rob = rate W.P.Cluster.No_robustness 5 in
      let prio = rate W.P.Cluster.Robust_snip 5 in
      Printf.printf "%-4d %10.0f %14.0f %10.0f %10.1fx %11.1fx %8.1fx\n" d
        no_priv no_rob prio (no_priv /. no_rob) (no_rob /. prio)
        (no_priv /. prio);
      record ~experiment:"table9" ~name:(Printf.sprintf "d%d" d)
        [
          ("d", I d);
          ("no_privacy_per_s", Fl no_priv);
          ("no_robustness_per_s", Fl no_rob);
          ("prio_per_s", Fl prio);
        ])
    regression_dims

(* ---------------------------------------------------------------------- *)
(* Table 2: the asymptotic comparison, made concrete.                      *)
(* ---------------------------------------------------------------------- *)

let table2 () =
  header "Table 2: cost shape per submission (x = M bits), measured";
  Printf.printf "%-8s %16s %18s %16s %18s\n" "M" "Prio proof len"
    "Prio srv transfer" "NIZK proof len" "client exps (NIZK)";
  let module W = W87 in
  List.iter
    (fun m ->
      let circuit = W.bits_circuit m in
      let proof_elts = W.P.Snip.proof_num_elements circuit in
      let cluster, _, _ =
        W.server_run ~mode:W.P.Cluster.Robust_snip ~circuit ~trunc_len:m
          ~num_servers:5 ~n:1 (fun _ -> W.bits_encoding m)
      in
      let srv = W.P.Cluster.bytes_sent cluster 1 in
      Printf.printf "%-8d %13d el %16s %13d B %18d\n" m proof_elts
        (pretty_bytes srv)
        (m * Prio.Nizk_bitproof.proof_bytes)
        (6 * m);
      record ~experiment:"table2" ~name:(Printf.sprintf "m%d" m)
        [
          ("m", I m);
          ("proof_elements", I proof_elts);
          ("server_bytes", I srv);
          ("nizk_proof_bytes", I (m * Prio.Nizk_bitproof.proof_bytes));
          ("nizk_client_exps", I (6 * m));
        ])
    [ 4; 16; 64; 256; 1024 ];
  print_endline
    "(Prio: proof length Θ(M), server transfer Θ(1), zero client\n\
    \ exponentiations — vs the NIZK's Θ(M) proofs and 2M+ exponentiations.)"

(* ---------------------------------------------------------------------- *)
(* Ablation: what the Appendix I optimizations buy.                        *)
(* ---------------------------------------------------------------------- *)

let ablation () =
  header "Ablation: optimized SNIP (App. I) vs the paper-literal reference";
  Printf.printf "%-8s %14s %14s %10s %16s %16s %10s\n" "M" "prove (opt)"
    "prove (ref)" "speedup" "verify (opt)" "verify (ref)" "speedup";
  let module W = W87 in
  let module Ref = Prio_snip.Reference.Make (Prio.F87) in
  List.iter
    (fun m ->
      let circuit = W.bits_circuit m in
      let enc = W.bits_encoding m in
      let p_opt =
        measure_stats (fun () ->
            W.P.Snip.prove ~rng:W.rng ~circuit ~num_servers:5 ~inputs:enc)
      in
      let p_ref =
        measure ~min_reps:1 ~min_time:0.05 (fun () ->
            Ref.prove ~rng:W.rng ~circuit ~num_servers:5 ~inputs:enc)
      in
      let ctx = W.P.Snip.make_batch_ctx ~rng:W.rng ~circuit ~num_servers:5 in
      let subs_opt = W.P.Snip.prove ~rng:W.rng ~circuit ~num_servers:5 ~inputs:enc in
      let subs_ref = Ref.prove ~rng:W.rng ~circuit ~num_servers:5 ~inputs:enc in
      let v_opt =
        measure_stats (fun () -> assert (W.P.Snip.verify_all ctx subs_opt))
      in
      let v_ref =
        measure ~min_reps:1 ~min_time:0.05 (fun () ->
            assert (Ref.verify ~rng:W.rng circuit subs_ref))
      in
      Printf.printf "%-8d %14s %14s %9.1fx %16s %16s %9.1fx\n" m
        (pretty_time p_opt.mean) (pretty_time p_ref) (p_ref /. p_opt.mean)
        (pretty_time v_opt.mean) (pretty_time v_ref) (v_ref /. v_opt.mean);
      record ~experiment:"ablation" ~name:(Printf.sprintf "m%d" m)
        [
          ("m", I m);
          ("prove_opt_s", Fl p_opt.mean);
          ("prove_opt_min_s", Fl p_opt.min_s);
          ("prove_opt_max_s", Fl p_opt.max_s);
          ("prove_opt_count", I p_opt.count);
          ("prove_ref_s", Fl p_ref);
          ("verify_opt_s", Fl v_opt.mean);
          ("verify_opt_min_s", Fl v_opt.min_s);
          ("verify_opt_max_s", Fl v_opt.max_s);
          ("verify_opt_count", I v_opt.count);
          ("verify_ref_s", Fl v_ref);
        ])
    [ 16; 64; 256 ]

(* ---------------------------------------------------------------------- *)
(* Circuit optimizer: what the pass pipeline buys, per AFE specimen.       *)
(* ---------------------------------------------------------------------- *)

let circuit_opt () =
  header "Circuit optimizer: mul gates and SNIP cost, raw vs optimized";
  Printf.printf "%-22s %11s %14s %14s %8s %14s %14s %8s\n" "AFE"
    "muls r->o" "prove (raw)" "prove (opt)" "speedup" "verify (raw)"
    "verify (opt)" "speedup";
  let module W = W87 in
  let module Z = W.P.Afe_zoo in
  let module C = W.P.Circuit in
  let s = W.P.Snip.proof_num_elements in
  List.iter
    (fun e ->
      let raw = e.Z.raw and opt = e.Z.optimized in
      let m_raw = C.num_mul_gates raw and m_opt = C.num_mul_gates opt in
      let enc = e.Z.sample W.rng in
      let p_raw =
        measure_stats (fun () ->
            W.P.Snip.prove ~rng:W.rng ~circuit:raw ~num_servers:5 ~inputs:enc)
      in
      let p_opt =
        measure_stats (fun () ->
            W.P.Snip.prove ~rng:W.rng ~circuit:opt ~num_servers:5 ~inputs:enc)
      in
      let ctx_raw =
        W.P.Snip.make_batch_ctx ~rng:W.rng ~circuit:raw ~num_servers:5
      in
      let ctx_opt =
        W.P.Snip.make_batch_ctx ~rng:W.rng ~circuit:opt ~num_servers:5
      in
      let subs_raw =
        W.P.Snip.prove ~rng:W.rng ~circuit:raw ~num_servers:5 ~inputs:enc
      in
      let subs_opt =
        W.P.Snip.prove ~rng:W.rng ~circuit:opt ~num_servers:5 ~inputs:enc
      in
      let v_raw =
        measure_stats (fun () -> assert (W.P.Snip.verify_all ctx_raw subs_raw))
      in
      let v_opt =
        measure_stats (fun () -> assert (W.P.Snip.verify_all ctx_opt subs_opt))
      in
      Printf.printf "%-22s %4d ->%4d %14s %14s %7.1fx %14s %14s %7.1fx\n"
        e.Z.name m_raw m_opt (pretty_time p_raw.mean) (pretty_time p_opt.mean)
        (p_raw.mean /. p_opt.mean) (pretty_time v_raw.mean)
        (pretty_time v_opt.mean) (v_raw.mean /. v_opt.mean);
      record ~experiment:"circuit_opt" ~name:e.Z.name
        [
          ("family", S e.Z.family);
          ("mul_raw", I m_raw);
          ("mul_opt", I m_opt);
          ("wires_raw", I (C.num_wires raw));
          ("wires_opt", I (C.num_wires opt));
          ("proof_elements_raw", I (s raw));
          ("proof_elements_opt", I (s opt));
          ("prove_raw_s", Fl p_raw.mean);
          ("prove_raw_count", I p_raw.count);
          ("prove_opt_s", Fl p_opt.mean);
          ("prove_opt_min_s", Fl p_opt.min_s);
          ("prove_opt_max_s", Fl p_opt.max_s);
          ("prove_opt_count", I p_opt.count);
          ("verify_raw_s", Fl v_raw.mean);
          ("verify_raw_count", I v_raw.count);
          ("verify_opt_s", Fl v_opt.mean);
          ("verify_opt_min_s", Fl v_opt.min_s);
          ("verify_opt_max_s", Fl v_opt.max_s);
          ("verify_opt_count", I v_opt.count);
        ])
    (Z.all ());
  print_endline
    "(proof length and verify work scale with mul gates; the optimizer's\n\
    \ reductions come from deduplicating defensively-stated AFE builders)"

(* ---------------------------------------------------------------------- *)
(* TCP deployment: end-to-end throughput over real sockets and processes.  *)
(* ---------------------------------------------------------------------- *)

let net () =
  header "TCP deployment: end-to-end submissions/s (real processes and sockets)";
  Printf.printf "%-8s %10s %14s %14s %14s\n" "L" "servers" "submissions/s"
    "upload/client" "server bytes";
  let module Wk = W87 in
  let module Net = Wk.P.Net in
  let module Metrics = Prio.Obs_metrics in
  let c_upload = Metrics.counter "prio_client_upload_bytes_total" in
  let c_link = Metrics.counter "prio_server_link_bytes_total" in
  List.iter
    (fun (l, s) ->
      let circuit = Wk.bits_circuit l in
      let cfg =
        Net.
          {
            circuit;
            trunc_len = l;
            num_servers = s;
            master = Wk.master;
            batch_seed = Rng.bytes Wk.rng 32;
          }
      in
      let n = Stdlib.max 4 (256 / l) in
      (* Seal every submission up front so the two byte-accounting paths
         can be compared: the legacy per-packet [upload_bytes] field
         against the unified Obs counter, which must agree exactly. *)
      let upload_before = Metrics.value c_upload in
      let packets =
        Array.init n (fun i ->
            Wk.P.Client.submit ~rng:Wk.rng
              ~mode:(Wk.P.Client.Robust_snip circuit)
              ~num_servers:s ~client_id:i ~master:Wk.master
              (Wk.bits_encoding l))
      in
      let legacy_upload =
        Array.fold_left
          (fun acc pk -> acc + pk.Wk.P.Client.upload_bytes)
          0 packets
      in
      let obs_upload = Metrics.value c_upload - upload_before in
      assert (obs_upload = legacy_upload);
      let d = Net.launch cfg in
      let batch = Array.mapi (fun i pk -> (i, pk)) packets in
      let outcomes, secs =
        Prio_proto.Pipeline.time (fun () -> Net.submit_batch d ~rng:Wk.rng batch)
      in
      Net.shutdown d;
      Array.iter (fun o -> assert (o = Net.Accepted)) outcomes;
      (* Same cross-check for server-to-server traffic, on an in-process
         cluster of the same shape: the per-link matrix behind
         [Cluster.total_server_bytes] against the Obs link counter. *)
      let link_before = Metrics.value c_link in
      let cluster, _, _ =
        Wk.server_run ~mode:Wk.P.Cluster.Robust_snip ~circuit ~trunc_len:l
          ~num_servers:s ~n (fun _ -> Wk.bits_encoding l)
      in
      let legacy_link = Wk.P.Cluster.total_server_bytes cluster in
      let obs_link = Metrics.value c_link - link_before in
      assert (obs_link = legacy_link);
      (* this path includes the client work and kernel round-trips; server
         processes genuinely run in parallel, so wall-clock is the honest
         denominator here *)
      Printf.printf "%-8d %10d %14.1f %14s %14s\n" l s
        (float_of_int n /. secs)
        (pretty_bytes (legacy_upload / n))
        (pretty_bytes legacy_link);
      record ~experiment:"net" ~name:(Printf.sprintf "l%d_s%d" l s)
        [
          ("l", I l);
          ("servers", I s);
          ("n", I n);
          ("seconds", Fl secs);
          ("submissions_per_s", Fl (float_of_int n /. secs));
          ("upload_bytes_legacy", I legacy_upload);
          ("upload_bytes_obs", I obs_upload);
          ("server_bytes_legacy", I legacy_link);
          ("server_bytes_obs", I obs_link);
        ])
    [ (16, 3); (256, 3); (1024, 5) ]

(* ---------------------------------------------------------------------- *)
(* Streaming capstone: 100k+ submissions through a sharded TCP deployment  *)
(* with epoch rotation keeping server memory flat, persistent client       *)
(* sessions, and a mid-run follower crash restored from its checkpoint.    *)
(* ---------------------------------------------------------------------- *)

(* Resident set of a live process from /proc/<pid>/statm (pages; Linux
   pages are 4 KiB here); 0 when unreadable (process gone / non-Linux). *)
let proc_rss_bytes pid =
  match open_in (Printf.sprintf "/proc/%d/statm" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ ->
          (try int_of_string resident * 4096 with Failure _ -> 0)
        | _ | (exception End_of_file) -> 0)

let streaming () =
  header "Streaming: sharded TCP deployment, epochs, crash+restore, flat RSS";
  let module Wk = W87 in
  let module Net = Wk.P.Net in
  let afe = Wk.P.Afe_sum.sum ~bits:1 in
  let shards = 2 and num_servers = 3 in
  let total_n =
    (* the capstone default pushes 100k+ submissions; the env knob keeps
       smoke runs of the full suite fast *)
    match Sys.getenv_opt "PRIO_BENCH_STREAM_N" with
    | Some s -> ( try int_of_string s with Failure _ -> 100_000)
    | None -> 100_000
  in
  let per_shard = total_n / shards in
  let epoch_size = 2_500 in
  (* kill the follower when shard 0 sits exactly on an epoch boundary:
     rotation snapshots the server, so with the stream paused and the
     event loop drained the latest checkpoint is current and the restore
     is lossless — the strongest consistency claim a crash drill can
     assert without two-phase decision broadcast *)
  let crash_after = per_shard / 2 / epoch_size * epoch_size in
  let ckpt_dirs =
    Array.init shards (fun i ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "prio-bench-ckpt-%d-%d" (Unix.getpid ()) i)
        in
        (try Unix.mkdir dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
        dir)
  in
  let deployments =
    Array.init shards (fun i ->
        let tuning =
          Prio_proto.Net.
            {
              default_tuning with
              epoch_size;
              checkpoint_dir = Some ckpt_dirs.(i);
            }
        in
        let cfg =
          Net.
            {
              circuit = afe.Wk.P.Afe.circuit;
              trunc_len = afe.Wk.P.Afe.trunc_len;
              num_servers;
              master = Wk.master;
              batch_seed = Rng.bytes Wk.rng 32;
            }
        in
        Net.launch ~tuning cfg)
  in
  let sessions = Array.map Net.open_session deployments in
  let accepted = Array.make shards 0 in
  let expected = ref 0 in
  let crashed = ref false in
  let after_crash = ref 0 in
  let restore_latency = ref 0. in
  let rss_warm = ref 0 and rss_final = ref 0 in
  let shard0_follower () = deployments.(0).Net.pids.(1) in
  let submit_exn shard ~client_id v =
    let pk =
      Wk.P.Client.submit ~rng:Wk.rng
        ~mode:(Wk.P.Client.Robust_snip afe.Wk.P.Afe.circuit)
        ~num_servers ~client_id ~master:Wk.master
        (afe.Wk.P.Afe.encode ~rng:Wk.rng v)
    in
    match Net.submit_packets_session sessions.(shard) ~rng:Wk.rng ~client_id pk with
    | Net.Accepted ->
      accepted.(shard) <- accepted.(shard) + 1;
      expected := !expected + v
    | Net.Rejected why -> failwith ("streaming: honest submission nacked: " ^ why)
    | Net.Unreachable e ->
      failwith ("streaming: " ^ Prio_proto.Net.string_of_protocol_error e)
  in
  let t0 = now () in
  for i = 0 to total_n - 1 do
    let shard = i mod shards in
    submit_exn shard ~client_id:i (i land 1);
    if shard = 0 then begin
      let done0 = accepted.(0) in
      if (not !crashed) && done0 = crash_after then begin
        crashed := true;
        (* pause: let the follower drain its decision queue and finish the
           boundary snapshot before the lights go out *)
        Unix.sleepf 0.3;
        Unix.kill (shard0_follower ()) Sys.sigkill;
        let rec wait_dead () =
          match (Net.poll_servers deployments.(0)).(1) with
          | Net.Exited _ -> ()
          | Net.Running ->
            Unix.sleepf 0.01;
            wait_dead ()
        in
        wait_dead ();
        let t = now () in
        Net.restart_server deployments.(0) 1;
        (* restore latency = restart to first accepted submission; the
           session redials the follower transparently *)
        submit_exn 0 ~client_id:(total_n + 1) 0;
        restore_latency := now () -. t;
        Printf.printf "  crash+restore at %d shard-0 decisions: %s\n%!"
          crash_after (pretty_time !restore_latency)
      end
      (* both RSS samples are of the restored process: one midway between
         the restore and the end of the stream, one at the end — with
         per-epoch table rotation the gap covers thousands of decisions
         and must stay flat *)
      else if !crashed then begin
        incr after_crash;
        if !after_crash = (per_shard - crash_after) / 2 then
          rss_warm := proc_rss_bytes (shard0_follower ())
      end
    end
  done;
  rss_final := proc_rss_bytes (shard0_follower ());
  let secs = now () -. t0 in
  Array.iter Net.close_session sessions;
  let total =
    Array.to_list deployments
    |> List.mapi (fun i d ->
           match Net.collect_aggregate d with
           | Error (srv, e) ->
             failwith
               (Printf.sprintf "streaming: shard %d server %d: %s" i srv
                  (Prio_proto.Net.string_of_protocol_error e))
           | Ok sigma ->
             int_of_string
               (Prio_bigint.Bigint.to_string
                  (afe.Wk.P.Afe.decode ~n:accepted.(i) sigma)))
    |> List.fold_left ( + ) 0
  in
  (* per-stage latency percentiles, mined from the shard-0 leader while it
     is still running: a live [q]-frame scrape of its metrics registry in
     JSON form — the histograms live in the server process, not ours *)
  let stage_fields, journal_fields =
    match
      Prio_proto.Net.scrape_metrics ~format:`Json
        deployments.(0).Net.addrs.(0)
    with
    | Error e ->
      Printf.printf "  (stage scrape failed: %s)\n"
        (Prio_proto.Net.string_of_protocol_error e);
      ([], [])
    | Ok text -> (
      match Json.parse text with
      | exception Json.Error _ -> ([], [])
      | report ->
        let stages =
          List.concat_map
            (fun stage ->
              let h =
                Json.member
                  (Printf.sprintf "prio_stage_%s_seconds" stage)
                  report
              in
              List.filter_map
                (fun q ->
                  match Option.map (Json.member q) h with
                  | Some (Some (Json.Num v)) ->
                    Some (Printf.sprintf "%s_%s_s" stage q, Fl v)
                  | _ -> None)
                [ "p50"; "p95"; "p99" ])
            [ "admit"; "verify"; "aggregate"; "checkpoint" ]
        in
        (* the durability price of the two-phase commit: every decision
           is write-ahead journaled + fsynced before it is acked. The
           mean is band-checked; the worst single fsync and the append
           count are presence-only (`*_max_s` / `*_count`). *)
        let journal =
          (match Json.member "prio_journal_appends_total" report with
          | Some (Json.Num v) ->
            [ ("journal_appends_count", I (int_of_float v)) ]
          | _ -> [])
          @
          match Json.member "prio_journal_fsync_seconds" report with
          | Some h -> (
            match
              (Json.member "count" h, Json.member "sum" h, Json.member "max" h)
            with
            | Some (Json.Num c), Some (Json.Num s), Some (Json.Num m)
              when c > 0. ->
              [
                ("journal_fsync_mean_s", Fl (s /. c));
                ("journal_fsync_max_s", Fl m);
              ]
            | _ -> [])
          | None -> []
        in
        (stages, journal))
  in
  (match stage_fields with
  | [] -> ()
  | fs ->
    Printf.printf "  leader stage latency:%s\n"
      (String.concat ""
         (List.map
            (fun (k, v) ->
              Printf.sprintf " %s=%s" k
                (match v with Fl f -> pretty_time f | _ -> "?"))
            fs)));
  (match List.assoc_opt "journal_fsync_mean_s" journal_fields with
  | Some (Fl mean) ->
    Printf.printf "  journal fsync: mean=%s%s\n" (pretty_time mean)
      (match List.assoc_opt "journal_appends_count" journal_fields with
      | Some (I n) -> Printf.sprintf " over %d appends" n
      | _ -> "")
  | _ -> ());
  Array.iter Net.shutdown deployments;
  Array.iter
    (fun dir ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    ckpt_dirs;
  (* consistency across the crash: nothing checkpointed was lost, nothing
     double-counted *)
  assert (total = !expected);
  (* flat memory: the follower's RSS at the end of the stream is within
     noise of its RSS tens of epochs earlier (GC slack, not table growth) *)
  let growth =
    if !rss_warm = 0 then 1.
    else float_of_int !rss_final /. float_of_int !rss_warm
  in
  let flat = !rss_warm > 0 && growth < 1.25 in
  assert flat;
  Printf.printf
    "  %d submissions over %d shards: %.1f/s; RSS %s -> %s (x%.3f, flat)\n"
    total_n shards
    (float_of_int total_n /. secs)
    (pretty_bytes !rss_warm) (pretty_bytes !rss_final) growth;
  record ~experiment:"streaming" ~name:"capstone"
    ([
      ("n", I total_n);
      ("shards", I shards);
      ("servers_per_shard", I num_servers);
      ("epoch_size", I epoch_size);
      ("seconds", Fl secs);
      ("submissions_per_s", Fl (float_of_int total_n /. secs));
      ("crash_at_decisions", I crash_after);
      ("restore_latency_s", Fl !restore_latency);
      ("rss_warm_bytes", I !rss_warm);
      ("rss_final_bytes", I !rss_final);
      ("rss_growth_ratio", Fl growth);
      ("flat_memory", S (if flat then "true" else "false"));
      ("aggregate_matches", S (if total = !expected then "true" else "false"));
    ]
    @ stage_fields @ journal_fields)

(* ---------------------------------------------------------------------- *)
(* Appendix G: client upload size, three sharing strategies.               *)
(* ---------------------------------------------------------------------- *)

let compression () =
  header "Appendix G: client upload bytes for a one-hot vote over 2^b buckets";
  Printf.printf "%-8s %14s %18s %14s %14s\n" "b" "explicit (2srv)"
    "Prio (PRG, 2srv)" "DPF (2srv)" "DPF expand";
  let module W = W87 in
  let module Comp = Prio_proto.Compressed.Make (Prio.F87) in
  let module Hist = W.P.Afe_histogram in
  List.iter
    (fun b ->
      let buckets = 1 lsl b in
      let t = Comp.create ~bits:b in
      let dpf_bytes = Comp.submit W.rng t ~value:(buckets / 3) in
      let explicit = Comp.explicit_upload_bytes t in
      (* full Prio upload (PRG-compressed, with SNIP) for the same vote *)
      let afe = Hist.histogram ~buckets in
      let enc = afe.W.P.Afe.encode ~rng:W.rng (buckets / 3) in
      let pk =
        W.P.Client.submit ~rng:W.rng
          ~mode:(W.P.Client.Robust_snip afe.W.P.Afe.circuit)
          ~num_servers:2 ~client_id:0 ~master:W.master enc
      in
      let expand_secs =
        let k0, _ = W.P.Dpf.gen W.rng ~bits:b ~alpha:0 ~beta:Prio.F87.one in
        measure ~min_reps:2 ~min_time:0.05 (fun () -> W.P.Dpf.eval_all k0)
      in
      Printf.printf "%-8d %14s %18s %14s %14s\n" b (pretty_bytes explicit)
        (pretty_bytes pk.W.P.Client.upload_bytes)
        (pretty_bytes dpf_bytes) (pretty_time expand_secs);
      record ~experiment:"compression" ~name:(Printf.sprintf "b%d" b)
        [
          ("b", I b);
          ("explicit_bytes", I explicit);
          ("prio_upload_bytes", I pk.W.P.Client.upload_bytes);
          ("dpf_bytes", I dpf_bytes);
          ("dpf_expand_s", Fl expand_secs);
        ])
    [ 6; 8; 10; 12; 14 ];
  print_endline
    "(DPF trades server CPU (the expand column) for logarithmic upload;\n\
    \ robustness for compressed shares is future work, as in the paper.)"

(* ---------------------------------------------------------------------- *)
(* NTT plan cache: reused twiddle/bit-reversal tables vs recomputing the   *)
(* stage roots on every transform.                                         *)
(* ---------------------------------------------------------------------- *)

let ntt_plan () =
  header "NTT plan cache: cached twiddle tables vs per-transform recomputation";
  Printf.printf "%-12s %-8s %14s %14s %10s\n" "field" "n" "plan-cached"
    "uncached" "speedup";
  let run name (module F : Prio.Field_intf.S) =
    let module N = Prio_poly.Ntt.Make (F) in
    let rng = Rng.of_string_seed ("bench-ntt-plan-" ^ name) in
    List.iter
      (fun n ->
        let c = Array.init n (fun _ -> F.random rng) in
        ignore (N.ntt c) (* build the plan outside the timed region *);
        let cached = measure (fun () -> ignore (N.ntt c)) in
        let uncached = measure (fun () -> ignore (N.ntt_uncached c)) in
        Printf.printf "%-12s %-8d %14s %14s %9.2fx\n" name n
          (pretty_time cached) (pretty_time uncached) (uncached /. cached);
        record ~experiment:"ntt_plan" ~name:(Printf.sprintf "%s_n%d" name n)
          [
            ("field", S name);
            ("n", I n);
            ("plan_s", Fl cached);
            ("uncached_s", Fl uncached);
            ("speedup", Fl (uncached /. cached));
          ])
      [ 256; 1024; 4096 ]
  in
  run "babybear" (module Prio.Babybear);
  run "f87" (module Prio.F87);
  print_endline
    "(the plan holds bit-reversal and all twiddle powers per (field, size);\n\
    \ the uncached path re-derives each stage root with a field\n\
    \ exponentiation per butterfly level)"

(* ---------------------------------------------------------------------- *)
(* TCP runtime scaling: concurrent client batches against single-threaded *)
(* servers.                                                                *)
(* ---------------------------------------------------------------------- *)

let net_scaling () =
  let cores = Domain.recommended_domain_count () in
  header
    (Printf.sprintf
       "TCP runtime: batch throughput vs domains (%d cores on this machine)"
       cores);
  if cores = 1 then
    Printf.printf
      "WARNING: only 1 core detected; scaling numbers below measure\n\
       overhead, not speedup (rows are stamped \"single_core\": true).\n";
  Printf.printf "%-10s %14s %14s %10s\n" "domains" "batch time"
    "submissions/s" "speedup";
  let module Wk = W87 in
  let module Net = Wk.P.Net in
  let l = 64 and s = 3 and n = 480 in
  let circuit = Wk.bits_circuit l in
  let domain_counts = [ 1; 2; 4; 8 ] in
  (* Fork before spawn: the runtime refuses [Unix.fork] in a process that
     has ever spawned a domain, so every deployment is launched up front,
     before the first multi-domain batch spawns domains here. *)
  let deployments =
    List.map
      (fun domains ->
        let cfg =
          Net.
            {
              circuit;
              trunc_len = l;
              num_servers = s;
              master = Wk.master;
              batch_seed = Rng.bytes Wk.rng 32;
            }
        in
        (domains, Net.launch cfg))
      domain_counts
  in
  let serial_rate = ref 0. in
  List.iter
    (fun (domains, d) ->
      let packets =
        Array.init n (fun i ->
            ( i,
              Wk.P.Client.submit ~rng:Wk.rng
                ~mode:(Wk.P.Client.Robust_snip circuit)
                ~num_servers:s ~client_id:i ~master:Wk.master
                (Wk.bits_encoding l) ))
      in
      let outcomes, secs =
        Prio_proto.Pipeline.time (fun () ->
            Net.submit_batch ~domains d ~rng:Wk.rng packets)
      in
      Net.shutdown d;
      Array.iter
        (fun o -> match o with Net.Accepted -> () | _ -> assert false)
        outcomes;
      let rate = float_of_int n /. secs in
      if domains = 1 then serial_rate := rate;
      let speedup = rate /. !serial_rate in
      Printf.printf "%-10d %14s %14.1f %9.2fx\n" domains (pretty_time secs)
        rate speedup;
      record ~experiment:"net_scaling" ~name:(Printf.sprintf "domains%d" domains)
        [
          ("domains", I domains);
          ("l", I l);
          ("servers", I s);
          ("n", I n);
          ("cores", I cores);
          ("seconds", Fl secs);
          ("submissions_per_s", Fl rate);
          ("speedup_vs_serial", Fl speedup);
        ])
    deployments;
  print_endline
    "(each domain keeps one submission in flight end-to-end; every server\n\
    \ is one single-threaded event loop whose leader overlaps the rounds\n\
    \ of concurrent submissions, and speedup above 1x needs spare\n\
    \ physical cores beyond the 3 server processes — the cores field\n\
    \ records what this machine had)"

(* ---------------------------------------------------------------------- *)
(* Multicore batch verification.                                           *)
(* ---------------------------------------------------------------------- *)

let parallel () =
  header
    (Printf.sprintf
       "Multicore batch verification (%d cores available on this machine)"
       (Domain.recommended_domain_count ()));
  if Domain.recommended_domain_count () = 1 then
    Printf.printf
      "WARNING: only 1 core detected; scaling numbers below measure\n\
       overhead, not speedup (rows are stamped \"single_core\": true).\n";
  Printf.printf "%-10s %14s %14s\n" "domains" "batch time" "submissions/s";
  let module W = W87 in
  let module Par = Prio_proto.Parallel.Make (Prio.F87) in
  let l = 256 and n = 32 in
  let circuit = W.bits_circuit l in
  let make_replica () =
    W.P.Cluster.create
      ~rng:(Rng.split W.rng)
      ~mode:W.P.Cluster.Robust_snip ~circuit ~trunc_len:l ~num_servers:5
      ~master:W.master ()
  in
  let packets =
    Array.init n (fun i ->
        ( i,
          W.P.Client.submit ~rng:W.rng
            ~mode:(W.P.Client.Robust_snip circuit)
            ~num_servers:5 ~client_id:i ~master:W.master (W.bits_encoding l) ))
  in
  List.iter
    (fun domains ->
      let (_, accepted), secs =
        Prio_proto.Pipeline.time (fun () -> Par.process ~make_replica ~domains packets)
      in
      assert (accepted = n);
      Printf.printf "%-10d %14s %14.0f\n" domains (pretty_time secs)
        (float_of_int n /. secs);
      record ~experiment:"parallel" ~name:(Printf.sprintf "domains%d" domains)
        [
          ("domains", I domains);
          ("n", I n);
          ("seconds", Fl secs);
          ("submissions_per_s", Fl (float_of_int n /. secs));
        ])
    [ 1; 2; 4 ];
  print_endline
    "(speedup tracks physical cores; submissions verify independently, so\n\
    \ the batch parallelizes with no locks — sums of sums commute)"

(* ---------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks.                                              *)
(* ---------------------------------------------------------------------- *)

let micro () =
  header "Bechamel micro-benchmarks (ns/op)";
  let open Bechamel in
  let module W = W87 in
  let f87_mul =
    let x = ref (Prio.F87.of_int 987654321) in
    Test.make ~name:"f87-mul" (Staged.stage (fun () -> x := Prio.F87.mul !x !x))
  in
  let f265_mul =
    let x = ref (Prio.F265.of_int 987654321) in
    Test.make ~name:"f265-mul" (Staged.stage (fun () -> x := Prio.F265.mul !x !x))
  in
  let bb_mul =
    let x = ref (Prio.Babybear.of_int 987654321) in
    Test.make ~name:"babybear-mul"
      (Staged.stage (fun () -> x := Prio.Babybear.mul !x !x))
  in
  let ntt =
    let module N = Prio_poly.Ntt.Make (Prio.F87) in
    let c = Array.init 1024 (fun _ -> Prio.F87.random W.rng) in
    Test.make ~name:"ntt-1024-f87" (Staged.stage (fun () -> ignore (N.ntt c)))
  in
  let sha =
    let data = Bytes.create 64 in
    Test.make ~name:"sha256-64B" (Staged.stage (fun () -> ignore (Prio.Sha256.digest data)))
  in
  let snip_prove =
    let circuit = W.bits_circuit 100 in
    let enc = W.bits_encoding 100 in
    Test.make ~name:"snip-prove-100bits"
      (Staged.stage (fun () ->
           ignore (W.P.Snip.prove ~rng:W.rng ~circuit ~num_servers:5 ~inputs:enc)))
  in
  let snip_verify =
    let circuit = W.bits_circuit 100 in
    let enc = W.bits_encoding 100 in
    let ctx = W.P.Snip.make_batch_ctx ~rng:W.rng ~circuit ~num_servers:5 in
    let subs = W.P.Snip.prove ~rng:W.rng ~circuit ~num_servers:5 ~inputs:enc in
    Test.make ~name:"snip-verify-100bits"
      (Staged.stage (fun () -> assert (W.P.Snip.verify_all ctx subs)))
  in
  let group_exp =
    let module G = Prio.Nizk_group in
    let e = G.random_exponent W.rng in
    Test.make ~name:"schnorr-group-exp"
      (Staged.stage (fun () -> ignore (G.exp G.g e)))
  in
  let tests =
    Test.make_grouped ~name:"prio"
      [ bb_mul; f87_mul; f265_mul; ntt; sha; snip_prove; snip_verify; group_exp ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  List.iter
    (fun (name, res) ->
      match Analyze.OLS.estimates res with
      | Some (e :: _) -> Printf.printf "%-28s %14.1f ns/op\n" name e
      | _ -> Printf.printf "%-28s %14s\n" name "n/a")
    (List.sort compare rows)

(* ---------------------------------------------------------------------- *)

let experiments =
  [
    ("table2", table2);
    ("table3", table3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table9", table9);
    ("ablation", ablation);
    ("circuit_opt", circuit_opt);
    ("compression", compression);
    ("ntt_plan", ntt_plan);
    (* net_scaling forks deployments, parallel spawns domains: keep every
       forking experiment ahead of every domain-spawning one (the runtime
       refuses fork after any domain has existed in this process) *)
    ("net", net);
    ("streaming", streaming);
    ("net_scaling", net_scaling);
    ("parallel", parallel);
    ("micro", micro);
  ]

let usage () =
  Printf.eprintf
    "usage: %s [experiment ...] [--json <path>] [--check <path>] \
     [--tolerance <t>]\n"
    Sys.argv.(0);
  exit 1

let () =
  let json_path = ref None in
  let check_path = ref None in
  let tolerance = ref 1.0 in
  let rec split acc = function
    | "--json" :: path :: rest ->
      json_path := Some path;
      split acc rest
    | "--check" :: path :: rest ->
      check_path := Some path;
      split acc rest
    | "--tolerance" :: t :: rest ->
      (match float_of_string_opt t with
      | Some t when t >= 0. -> tolerance := t
      | Some _ | None -> usage ());
      split acc rest
    | [ "--json" ] | [ "--check" ] | [ "--tolerance" ] -> usage ()
    | x :: rest -> split (x :: acc) rest
    | [] -> List.rev acc
  in
  let selected = split [] (List.tl (Array.to_list Sys.argv)) in
  (match selected with
  | [] ->
    print_endline "Prio reproduction benchmarks (all experiments; see EXPERIMENTS.md)";
    List.iter (fun (_, f) -> f ()) experiments
  | names ->
    (* run in the given order; note that forking experiments (net,
       net_scaling) must come before domain-spawning ones (parallel) *)
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; one of: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
      names);
  (match !json_path with
  | None -> ()
  | Some path ->
    write_json path;
    Printf.printf "\nwrote %s (%d records + metrics snapshot)\n" path
      (List.length !json_records));
  match !check_path with
  | None -> ()
  | Some path ->
    if not (check_against path ~tolerance:!tolerance) then exit 1

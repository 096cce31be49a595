(* prio-cli: run a simulated Prio deployment from the command line.

   Examples:
     dune exec bin/prio_cli.exe -- count --clients 200
     dune exec bin/prio_cli.exe -- sum --bits 8 --clients 100 --servers 3
     dune exec bin/prio_cli.exe -- histogram --buckets 12 --clients 500 --dp-epsilon 1.0
     dune exec bin/prio_cli.exe -- regression --dims 3 --clients 150 --mpc *)

open Cmdliner
open Core
module P = Prio.Make (Prio.F87)

type opts = {
  servers : int;
  clients : int;
  seed : string;
  mpc : bool;
  dp_epsilon : float option;
}

let deploy opts afe =
  let rng = Prio.Rng.of_string_seed opts.seed in
  let mode = if opts.mpc then P.Cluster.Robust_mpc else P.Cluster.Robust_snip in
  (rng, P.deploy ~mode ~num_servers:opts.servers ~rng afe)

let dp_alpha opts ~sensitivity =
  Option.map
    (fun epsilon -> Prio.Dp.alpha_of_epsilon ~epsilon ~sensitivity)
    opts.dp_epsilon

let report stats =
  Printf.printf "\naccepted: %d   rejected: %d   server-to-server bytes: %d\n"
    stats.P.accepted stats.P.rejected stats.P.server_bytes

(* ------------------------------ commands ---------------------------- *)

let run_count opts =
  let rng, d = deploy opts P.Afe_sum.count_bits in
  let values = List.init opts.clients (fun _ -> Prio.Rng.bool rng) in
  let count, stats =
    P.collect ?dp_alpha:(dp_alpha opts ~sensitivity:1) d values
  in
  let true_count = List.length (List.filter Fun.id values) in
  Printf.printf "private count: %d (true: %d)\n" count true_count;
  report stats

let run_sum opts bits =
  let rng, d = deploy opts (P.Afe_sum.sum ~bits) in
  let values = List.init opts.clients (fun _ -> Prio.Rng.int_below rng (1 lsl bits)) in
  let total, stats =
    P.collect ?dp_alpha:(dp_alpha opts ~sensitivity:((1 lsl bits) - 1)) d values
  in
  let true_total = List.fold_left ( + ) 0 values in
  Printf.printf "private sum of %d %d-bit values: %s (true: %d)\n" opts.clients
    bits (Prio.Bigint.to_string total) true_total;
  report stats

let run_histogram opts buckets =
  let rng, d = deploy opts (P.Afe_histogram.histogram ~buckets) in
  (* skewed synthetic distribution *)
  let values =
    List.init opts.clients (fun _ ->
        let a = Prio.Rng.int_below rng buckets
        and b = Prio.Rng.int_below rng buckets in
        Stdlib.min a b)
  in
  let counts, stats = P.collect ?dp_alpha:(dp_alpha opts ~sensitivity:1) d values in
  Printf.printf "private histogram over %d buckets:\n" buckets;
  Array.iteri
    (fun i c ->
      Printf.printf "  %3d: %5d %s\n" i c (String.make (Stdlib.min 60 (Stdlib.max 0 c)) '#'))
    counts;
  report stats

let run_regression opts dims =
  let bits = 10 in
  let rng, d = deploy opts (P.Afe_regression.least_squares ~d:dims ~bits) in
  (* ground truth: y = 25 + sum_j (j+1) x_j, features 10-bit *)
  let values =
    List.init opts.clients (fun _ ->
        let features = Array.init dims (fun _ -> Prio.Rng.int_below rng 64) in
        let target =
          25 + Array.fold_left ( + ) 0 (Array.mapi (fun j x -> (j + 1) * x) features)
        in
        P.Afe_regression.{ features; target })
  in
  let coefs, stats = P.collect d values in
  Printf.printf "private least-squares fit over %d clients:\n  y = %.3f" opts.clients coefs.(0);
  for j = 1 to dims do
    Printf.printf " %+.3f*x%d" coefs.(j) j
  done;
  print_string "\n  (truth: y = 25";
  for j = 1 to dims do
    Printf.printf " %+d*x%d" j j
  done;
  print_endline ")";
  report stats

let run_stream opts bits epoch_size =
  let rng = Prio.Rng.of_string_seed opts.seed in
  let afe = P.Afe_sum.sum ~bits in
  let mode = if opts.mpc then P.Cluster.Robust_mpc else P.Cluster.Robust_snip in
  let master = Prio.Rng.bytes rng 32 in
  let cluster =
    P.Cluster.create ~epoch_size ~rng ~mode ~circuit:afe.P.Afe.circuit
      ~trunc_len:afe.P.Afe.trunc_len ~num_servers:opts.servers ~master ()
  in
  let peak = ref 0 and true_total = ref 0 in
  for i = 0 to opts.clients - 1 do
    let x = Prio.Rng.int_below rng (1 lsl bits) in
    let pk =
      P.Client.submit ~rng
        ~mode:(P.Cluster.client_mode cluster)
        ~num_servers:opts.servers ~client_id:i ~master
        (afe.P.Afe.encode ~rng x)
    in
    if P.Cluster.submit cluster ~client_id:i pk then
      true_total := !true_total + x;
    peak := Stdlib.max !peak (P.Cluster.resident_entries cluster)
  done;
  let total =
    afe.P.Afe.decode ~n:cluster.P.Cluster.accepted (P.Cluster.publish cluster)
  in
  Printf.printf
    "streamed %d %d-bit values through %d servers (epoch size %d):\n\
    \  epochs rotated: %d\n\
    \  resident per-submission entries: %d now, %d peak (bound %d)\n\
    \  private sum: %s (true: %d)\n\
    \  accepted: %d   rejected: %d\n"
    opts.clients bits opts.servers epoch_size cluster.P.Cluster.epoch
    (P.Cluster.resident_entries cluster)
    !peak
    (if epoch_size = 0 then !peak else opts.servers * epoch_size)
    (Prio.Bigint.to_string total) !true_total cluster.P.Cluster.accepted
    cluster.P.Cluster.rejected

(* ----------------------------- circuits ------------------------------ *)

(* Proof-share size for a circuit with m mul gates (see Snip):
   2 masks + 2N h-points + 3 Beaver elements, N = next_pow2(m+1). *)
let proof_elems m = if m = 0 then 0 else 2 + (2 * P.Ntt.next_pow2 (m + 1)) + 3

(* Per-AFE gate census before/after optimization, over the zoo's
   specimen list — the human-readable view of what the circuit-budget
   lint pins. *)
let run_circuit format =
  let module Z = P.Afe_zoo in
  let module CA = P.Circuit_analysis in
  let rows =
    List.map
      (fun e ->
        (e.Z.name, e.Z.family, CA.census e.Z.raw, CA.census e.Z.optimized))
      (Z.all ())
  in
  match format with
  | `Text ->
    Printf.printf "%-22s %-12s %6s | %5s %5s %5s | %5s %5s %5s | %s\n" "name"
      "family" "inputs" "wires" "muls" "asserts" "wires" "muls" "asserts"
      "proof elems";
    Printf.printf "%-22s %-12s %6s | %17s %s | %17s %s | %s\n" "" "" ""
      "raw" "" "optimized" "" "raw -> opt";
    List.iter
      (fun (name, family, r, o) ->
        Printf.printf
          "%-22s %-12s %6d | %5d %5d %5d | %5d %5d %5d | %4d -> %d\n" name
          family r.CA.inputs r.CA.wires r.CA.muls r.CA.asserts o.CA.wires
          o.CA.muls o.CA.asserts (proof_elems r.CA.muls) (proof_elems o.CA.muls))
      rows
  | `Json ->
    let side c =
      Printf.sprintf
        "{\"wires\": %d, \"muls\": %d, \"asserts\": %d, \"proof_elements\": %d}"
        c.CA.wires c.CA.muls c.CA.asserts (proof_elems c.CA.muls)
    in
    print_string "[";
    List.iteri
      (fun i (name, family, r, o) ->
        if i > 0 then print_string ",";
        Printf.printf
          "\n  {\"name\": %S, \"family\": %S, \"inputs\": %d, \"raw\": %s, \
           \"optimized\": %s}"
          name family r.CA.inputs (side r) (side o))
      rows;
    print_endline "\n]"

(* --------------------------- observability --------------------------- *)

(* A small end-to-end run (sum of 4-bit values) that exercises every
   pipeline phase in-process, so its metrics and trace show the full
   span taxonomy: client.prepare/prove/share/seal, cluster.submit,
   server.snip_verify/aggregate/publish. *)
let observed_workload opts =
  let bits = 4 in
  let rng, d = deploy opts (P.Afe_sum.sum ~bits) in
  let values =
    List.init opts.clients (fun _ -> Prio.Rng.int_below rng (1 lsl bits))
  in
  ignore (P.collect d values)

let run_metrics opts format =
  Prio.Obs_metrics.reset ();
  observed_workload opts;
  (match format with
  | `Summary -> print_string (Prio.Obs_report.summary ())
  | `Prometheus -> print_string (Prio.Obs_report.prometheus ())
  | `Json -> print_endline (Prio.Obs_report.json ()));
  Printf.eprintf
    "# metrics from one in-process run (%d clients, %d servers); see docs/OBSERVABILITY.md\n"
    opts.clients opts.servers

(* ------------------------------- top --------------------------------- *)

(* Parse Prometheus exposition text into a (name -> value) table, keeping
   only the scalar series (counters, gauges, histogram _sum/_count) —
   enough for a per-interval diff view. *)
let parse_prometheus text =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' && not (String.contains line '{')
      then
        match String.index_opt line ' ' with
        | None -> ()
        | Some i -> (
          let name = String.sub line 0 i in
          match
            float_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some v -> Hashtbl.replace tbl name v
          | None -> ()))
    (String.split_on_char '\n' text);
  tbl

(* Live-scrape demo: launch a real TCP deployment (one OS process per
   server), drive submissions between scrapes, and pull each server's
   metrics registry over the wire ([q] frames) — rendering what moved
   per interval, plus a health-probe ([h]) line per server. *)
let run_top opts intervals period =
  let module T = Prio.Transport in
  let rng = Prio.Rng.of_string_seed opts.seed in
  let afe = P.Afe_sum.sum ~bits:4 in
  let master = Prio.Rng.bytes rng 32 in
  let batch_seed = Prio.Rng.bytes rng 32 in
  let cfg =
    {
      P.Net.circuit = afe.P.Afe.circuit;
      trunc_len = afe.P.Afe.trunc_len;
      num_servers = opts.servers;
      master;
      batch_seed;
    }
  in
  let tuning =
    { T.default_tuning with io_timeout = 2.0; dial_timeout = 1.0 }
  in
  let d = P.Net.launch ~tuning cfg in
  Fun.protect ~finally:(fun () -> P.Net.shutdown d) @@ fun () ->
  let session = P.Net.open_session d in
  Fun.protect ~finally:(fun () -> P.Net.close_session session) @@ fun () ->
  let n = opts.servers in
  let prev = Array.init n (fun _ -> Hashtbl.create 0) in
  let next_id = ref 0 in
  let watched =
    [
      "prio_net_rx_frames_total";
      "prio_net_tx_bytes_total";
      "prio_stage_admit_seconds_count";
      "prio_stage_verify_seconds_count";
      "prio_stage_aggregate_seconds_count";
      "prio_net_pending_depth";
    ]
  in
  for it = 1 to intervals do
    let per = max 1 (opts.clients / intervals) in
    for _ = 1 to per do
      let cid = !next_id in
      incr next_id;
      let pk =
        P.Client.submit ~rng
          ~mode:(P.Client.Robust_snip afe.P.Afe.circuit)
          ~num_servers:n ~client_id:cid ~master
          (afe.P.Afe.encode ~rng (Prio.Rng.int_below rng 16))
      in
      ignore (P.Net.submit_packets_session session ~rng ~client_id:cid pk)
    done;
    if period > 0. then Prio.Retry.sleep period;
    Printf.printf "--- interval %d: +%d submissions ---\n" it per;
    Printf.printf "%-40s" "metric (delta this interval)";
    for i = 0 to n - 1 do
      Printf.printf " %10s" (Printf.sprintf "srv%d" i)
    done;
    print_newline ();
    let scrapes =
      Array.init n (fun i ->
          match T.scrape_metrics ~tuning d.P.Net.addrs.(i) with
          | Ok text -> parse_prometheus text
          | Error _ -> Hashtbl.create 0)
    in
    List.iter
      (fun name ->
        Printf.printf "%-40s" name;
        for i = 0 to n - 1 do
          let get t = Option.value ~default:0. (Hashtbl.find_opt t name) in
          Printf.printf " %10.0f" (get scrapes.(i) -. get prev.(i))
        done;
        print_newline ())
      watched;
    Array.blit scrapes 0 prev 0 n;
    for i = 0 to n - 1 do
      match T.probe_health ~tuning d.P.Net.addrs.(i) with
      | Ok h ->
        Printf.printf "srv%d  epoch=%d pending=%d accepted=%d%s%s\n" i
          h.T.h_epoch h.T.h_pending h.T.h_accepted
          (match h.T.h_ckpt_age with
          | None -> ""
          | Some a -> Printf.sprintf " ckpt_age=%.1fs" a)
          (match h.T.h_peers with
          | [] -> ""
          | peers ->
            " links="
            ^ String.concat ","
                (List.map
                   (fun (j, up) ->
                     Printf.sprintf "%d:%s" j (if up then "up" else "down"))
                   peers))
      | Error e ->
        Printf.printf "srv%d  unreachable (%s)\n" i
          (T.string_of_protocol_error e)
    done
  done

let run_trace opts format =
  let recorder = Prio.Obs_trace.create ~capacity:65536 () in
  Prio.Obs_trace.install recorder;
  Fun.protect ~finally:Prio.Obs_trace.uninstall (fun () ->
      observed_workload opts);
  match format with
  | `Tree -> print_string (Prio.Obs_trace.tree recorder)
  | `Jsonl -> print_string (Prio.Obs_trace.to_jsonl recorder)

(* ------------------------------- terms ------------------------------ *)

let opts_term =
  let servers =
    Arg.(value & opt int 5 & info [ "servers"; "s" ] ~doc:"Number of servers.")
  in
  let clients =
    Arg.(value & opt int 100 & info [ "clients"; "n" ] ~doc:"Number of clients.")
  in
  let seed =
    Arg.(value & opt string "prio-cli" & info [ "seed" ] ~doc:"Deterministic RNG seed.")
  in
  let mpc =
    Arg.(value & flag & info [ "mpc" ] ~doc:"Use the Prio-MPC (server-side Valid) variant.")
  in
  let dp =
    Arg.(
      value
      & opt (some float) None
      & info [ "dp-epsilon" ] ~doc:"Add distributed differential-privacy noise with this ε.")
  in
  let make servers clients seed mpc dp_epsilon =
    { servers; clients; seed; mpc; dp_epsilon }
  in
  Term.(const make $ servers $ clients $ seed $ mpc $ dp)

let count_cmd =
  Cmd.v (Cmd.info "count" ~doc:"Privately count clients holding a true bit.")
    Term.(const run_count $ opts_term)

let sum_cmd =
  let bits = Arg.(value & opt int 8 & info [ "bits" ] ~doc:"Bit width of values.") in
  Cmd.v (Cmd.info "sum" ~doc:"Privately sum b-bit integers.")
    Term.(const run_sum $ opts_term $ bits)

let histogram_cmd =
  let buckets = Arg.(value & opt int 10 & info [ "buckets" ] ~doc:"Histogram buckets.") in
  Cmd.v (Cmd.info "histogram" ~doc:"Privately collect a frequency histogram.")
    Term.(const run_histogram $ opts_term $ buckets)

let regression_cmd =
  let dims = Arg.(value & opt int 3 & info [ "dims"; "d" ] ~doc:"Feature dimensions.") in
  Cmd.v (Cmd.info "regression" ~doc:"Privately train a least-squares model.")
    Term.(const run_regression $ opts_term $ dims)

let stream_cmd =
  let bits =
    Arg.(value & opt int 8 & info [ "bits" ] ~doc:"Bit width of values.")
  in
  let epoch_size =
    Arg.(
      value
      & opt int 64
      & info [ "epoch-size" ]
          ~doc:
            "Submissions per replay/idempotency epoch; per-submission \
             server state is dropped at each boundary. 0 disables rotation.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Privately sum a stream of b-bit integers with per-epoch table \
          rotation, reporting epochs rotated and peak resident state \
          (constant-memory streaming aggregation).")
    Term.(const run_stream $ opts_term $ bits $ epoch_size)

let circuit_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json).")
  in
  Cmd.v
    (Cmd.info "circuit"
       ~doc:
         "Print the per-AFE Valid-circuit gate census before and after \
          the circuit optimizer (the counts the circuit-budget lint \
          pins).")
    Term.(const run_circuit $ format)

let metrics_cmd =
  let format =
    Arg.(
      value
      & opt
          (enum
             [ ("summary", `Summary); ("prometheus", `Prometheus);
               ("json", `Json) ])
          `Summary
      & info [ "format" ]
          ~doc:"Output format: $(b,summary), $(b,prometheus) or $(b,json).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a small in-process deployment and print the Obs metrics \
          snapshot; the default summary shows p50/p95/p99 latency \
          estimates per histogram.")
    Term.(const run_metrics $ opts_term $ format)

let top_cmd =
  let intervals =
    Arg.(value & opt int 3 & info [ "intervals" ] ~doc:"Scrape intervals.")
  in
  let period =
    Arg.(
      value
      & opt float 0.0
      & info [ "period" ] ~doc:"Extra seconds to sleep between scrapes.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Launch a real TCP deployment (one OS process per server), drive \
          submissions, and live-scrape every server's metrics over the \
          wire, showing a per-interval diff table and a health-probe line \
          per server.")
    Term.(const run_top $ opts_term $ intervals $ period)

let trace_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("tree", `Tree); ("jsonl", `Jsonl) ]) `Tree
      & info [ "format" ] ~doc:"Output format: $(b,tree) or $(b,jsonl).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a small in-process deployment under the span recorder and \
          print the trace (client.prepare through server.publish).")
    Term.(const run_trace $ opts_term $ format)

let () =
  let info =
    Cmd.info "prio-cli" ~version:"1.0.0"
      ~doc:"Private aggregate statistics with the Prio protocol (NSDI 2017)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            count_cmd;
            sum_cmd;
            histogram_cmd;
            regression_cmd;
            circuit_cmd;
            stream_cmd;
            metrics_cmd;
            trace_cmd;
            top_cmd;
          ]))

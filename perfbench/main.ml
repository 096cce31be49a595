(* The repository benchmark: one workload of the multi-process TCP
   deployment ([Net.launch]) per run, driven from a single process.

     dune exec --root . -- perfbench/main.exe \
       --workload small-sum --seed 1 --seconds 24 --trace 0

   A run seals every packet from the seed before any timing, measures
   set-up, then rounds of an open-loop block at the workload's fixed
   rate, a closed-loop slice with one session per core and follower
   restarts, and checks every verdict and the decoded aggregate. With --trace 0
   the last stdout line carries the end-to-end metrics; with --trace 1 it
   carries the per-layer ones (micro timings of each layer's public
   functions, counters scraped from the servers over [q] frames, the
   telemetry ablation and the self-time ledger of a traced run), and a
   ledger table is printed before it. A line starting with "host "
   records the facts results must share to be compared:

     dune exec --root . -- perfbench/main.exe --compare A.out B.out *)

open Core
module F = Prio.F87
module P = Prio.Make (F)
module Net = P.Net
module T = Prio.Transport
module Rng = Prio.Rng
module Metrics = Prio.Obs_metrics
module Trace = Prio.Obs_trace
module A = Perfbench.Arith

(* Monotonic nanoseconds: gettimeofday's microseconds would quantize the
   sub-millisecond timings. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

exception Run_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Run_failed s)) fmt

(* ------------------------------ workloads ------------------------------ *)

type spec = {
  name : string;
  servers : int;
  afe : (int array, int array) P.Afe.t;
  input : Rng.t -> int array;  (** one honest client's value *)
  invalid_every : int;  (** client ids divisible by this are invalid; 0 = none *)
  capacity : float;
      (** closed-loop capacity (throughput_per_s, two sessions) measured
          on the 2-vCPU reference host before any optimisation: the median
          of five seeds. It sizes the work of a run, so every run of a
          workload does the same work whatever the speed of the code. *)
}

(* Open-loop arrivals per second: a quarter of the reference capacity,
   the same utilisation on every workload. Latency is timed from the
   schedule, so queueing counts, but lightly enough that a drift in the
   host's speed is not multiplied by a queue near saturation. *)
let rate spec = spec.capacity /. 4.

(* The measured time runs in this many rounds. *)
let rounds = 4

(* What the streaming capstone runs with; rotation also snapshots. *)
let epoch_size = 2_500

let small_sum_afe =
  P.Afe.map_output
    (fun b -> [| Prio.Bigint.to_int_exn b |])
    (P.Afe.contramap_input (fun (v : int array) -> v.(0)) (P.Afe_sum.sum ~bits:1))

(* L one-bit integers, one assert_bit per coordinate (paper Fig. 4/5). *)
let wide_bits_afe l =
  let b = P.Circuit.Builder.create ~num_inputs:l in
  for i = 0 to l - 1 do
    P.Circuit.Builder.assert_bit b (P.Circuit.Builder.input b i)
  done;
  let circuit, raw_circuit = P.Afe.compile (P.Circuit.Builder.build b) in
  {
    P.Afe.name = "wide-bits";
    encoding_len = l;
    trunc_len = l;
    circuit;
    raw_circuit;
    encode = (fun ~rng:_ v -> Array.map F.of_int v);
    decode = (fun ~n:_ sigma -> Array.map P.Afe.to_int_exn sigma);
    leakage = "per-coordinate counts";
  }

let small_sum =
  {
    name = "small-sum";
    servers = 3;
    afe = small_sum_afe;
    input = (fun rng -> [| Rng.int_below rng 2 |]);
    invalid_every = 10;
    capacity = 644.;
  }

let workloads =
  [
    small_sum;
    {
      name = "wide-bits";
      servers = 5;
      afe = wide_bits_afe 256;
      input = (fun rng -> Array.init 256 (fun _ -> Rng.int_below rng 2));
      invalid_every = 0;
      capacity = 60.;
    };
  ]

(* ------------------------------ host facts ----------------------------- *)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.value n ~default:(Domain.recommended_domain_count ())

(* Filesystem type of the mount holding [dir] (longest mount-point
   prefix in /proc/mounts): fsync is free on tmpfs, so results taken on
   different filesystems do not compare. *)
let fs_type dir =
  let path = Unix.realpath dir in
  let under mnt =
    mnt = "/" || path = mnt
    || String.length path > String.length mnt
       && String.sub path 0 (String.length mnt) = mnt
       && path.[String.length mnt] = '/'
  in
  match open_in "/proc/mounts" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec go best =
      match input_line ic with
      | exception End_of_file -> best
      | line -> (
        match String.split_on_char ' ' line with
        | _ :: mnt :: ty :: _ when under mnt -> (
          match best with
          | Some (m, _) when String.length m >= String.length mnt -> go best
          | _ -> go (Some (mnt, ty)))
        | _ -> go best)
    in
    let best = go None in
    close_in ic;
    Option.fold ~none:"unknown" ~some:snd best

(* Resident set of a live process in bytes (statm counts 4 KiB pages). *)
let rss_bytes pid =
  match open_in (Printf.sprintf "/proc/%d/statm" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let r =
      match String.split_on_char ' ' (input_line ic) with
      | _ :: resident :: _ -> Option.value ~default:0 (int_of_string_opt resident) * 4096
      | _ | (exception End_of_file) -> 0
    in
    close_in ic;
    r

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* ------------------------------- packets ------------------------------- *)

type sub = { cid : int; input : int array; valid : bool; pk : P.Client.packets }

let next_cid = ref 1

(* Encode and seal [n] submissions through the normal client path. An
   invalid one has its last coordinate set to 2 before sealing, so its
   SNIP proves a false statement. Each encode-to-packets time is pushed
   onto [times]. *)
let seal spec rng ~master ?(all_valid = false) ?(times = ref []) n =
  Array.init n (fun _ ->
      let cid = !next_cid in
      incr next_cid;
      let valid =
        all_valid || spec.invalid_every = 0 || cid mod spec.invalid_every <> 0
      in
      let input = spec.input rng in
      let t0 = now () in
      let enc = spec.afe.P.Afe.encode ~rng input in
      if not valid then enc.(Array.length enc - 1) <- F.of_int 2;
      let pk =
        P.Client.submit ~rng
          ~mode:(P.Client.Robust_snip spec.afe.P.Afe.circuit)
          ~num_servers:spec.servers ~client_id:cid ~master enc
      in
      times := (now () -. t0) :: !times;
      { cid; input; valid; pk })

(* ----------------------------- deployments ----------------------------- *)

type dep = {
  d : Net.deployment;
  expected : int array;  (** decoded aggregate the valid accepts must give *)
  mutable submitted : int;
  mutable accepted : int;
  mutable live : bool;
}

let live_deps : dep list ref = ref []
let tally = Mutex.create ()
let attempted = ref 0
let failed = ref 0

let launch spec ~master ~batch_seed ?trace_dir dir =
  mkdir_p dir;
  let tuning =
    { T.default_tuning with T.checkpoint_dir = Some dir; epoch_size; trace_dir }
  in
  let cfg =
    {
      Net.circuit = spec.afe.P.Afe.circuit;
      trunc_len = spec.afe.P.Afe.trunc_len;
      num_servers = spec.servers;
      master;
      batch_seed;
    }
  in
  let dep =
    {
      d = Net.launch ~tuning cfg;
      expected = Array.make spec.afe.P.Afe.trunc_len 0;
      submitted = 0;
      accepted = 0;
      live = true;
    }
  in
  live_deps := dep :: !live_deps;
  dep

let shutdown dep =
  if dep.live then begin
    dep.live <- false;
    Net.shutdown dep.d
  end

(* Submit one sealed submission and judge its verdict: honest ones must
   be accepted and invalid ones rejected. *)
let submit dep sess rng sub =
  let outcome = Net.submit_packets_session sess ~rng ~client_id:sub.cid sub.pk in
  let ok =
    match outcome with
    | Net.Accepted -> sub.valid
    | Net.Rejected _ -> not sub.valid
    | Net.Unreachable _ -> false
  in
  Mutex.protect tally (fun () ->
      incr attempted;
      dep.submitted <- dep.submitted + 1;
      if not ok then begin
        incr failed;
        Printf.eprintf "perfbench: client %d (%s): %s\n%!" sub.cid
          (if sub.valid then "honest" else "invalid")
          (match outcome with
          | Net.Accepted -> "accepted"
          | Net.Rejected why -> "rejected: " ^ why
          | Net.Unreachable e -> T.string_of_protocol_error e)
      end;
      if outcome = Net.Accepted then begin
        dep.accepted <- dep.accepted + 1;
        if sub.valid then
          Array.iteri (fun j x -> dep.expected.(j) <- dep.expected.(j) + x) sub.input
      end);
  ok

(* The correctness gate on the published aggregate. *)
let check_aggregate spec dep =
  match Net.collect_aggregate dep.d with
  | Error (i, e) -> fail "collect from server %d: %s" i (T.string_of_protocol_error e)
  | Ok sigma ->
    let got = spec.afe.P.Afe.decode ~n:dep.accepted sigma in
    if got <> dep.expected then fail "%s: decoded aggregate differs from the seeded sum" spec.name

let scrape dep i =
  match T.scrape_metrics ~format:`Json dep.d.Net.addrs.(i) with
  | Ok text -> A.scrape_of_text text
  | Error e -> fail "scrape server %d: %s" i (T.string_of_protocol_error e)

(* Counter window over every server process that lived in it: a process
   killed inside the window closes its segment with a scrape taken just
   before the kill; its successor's registry starts at zero. *)
type window = {
  since : A.scrape option array;
  mutable segments : (A.scrape option * A.scrape) list;
  subs_before : int;
}

let open_window dep =
  {
    since = Array.init (Array.length dep.d.Net.addrs) (fun i -> Some (scrape dep i));
    segments = [];
    subs_before = dep.submitted;
  }

let end_segment w dep i =
  w.segments <- (w.since.(i), scrape dep i) :: w.segments;
  w.since.(i) <- None

(* Kill follower 1, wait until supervision sees it gone, restart it, and
   time from the restart to the first accepted submission after it: the
   time the deployment is without full service. The submission comes
   from a new client, so no stale connection and retry backoff of the
   load sessions is timed. *)
let restore_drill w dep rng probe =
  end_segment w dep 1;
  Unix.kill dep.d.Net.pids.(1) Sys.sigkill;
  let rec wait_dead () =
    match (Net.poll_servers dep.d).(1) with
    | Net.Exited _ -> ()
    | Net.Running ->
      Unix.sleepf 0.001;
      wait_dead ()
  in
  wait_dead ();
  let t0 = now () in
  Net.restart_server dep.d 1;
  let sess = Net.open_session dep.d in
  if not (submit dep sess rng probe) then fail "first submission after restart failed";
  let t = now () -. t0 in
  Net.close_session sess;
  t

(* ------------------------------ load phases ---------------------------- *)

let run_threads n body =
  let errors = ref [] in
  let threads =
    List.init n (fun k ->
        Thread.create
          (fun () ->
            try body k
            with e -> Mutex.protect tally (fun () -> errors := e :: !errors))
          ())
  in
  List.iter Thread.join threads;
  match !errors with [] -> () | e :: _ -> raise e

(* Open loop: Poisson arrivals at [rate] from the seed, one thread per
   session taking the next due submission. Latency runs from the due
   time, so a stalled generator or server charges every submission it
   delays. *)
let open_loop sessions subs ~rate ~sched ~send =
  let n = Array.length subs in
  let offs = Array.make n 0. in
  let t = ref 0. in
  for i = 0 to n - 1 do
    t := !t +. (-.log (1. -. Rng.float01 sched) /. rate);
    offs.(i) <- !t
  done;
  let timings = Array.make n { A.due = 0.; start = 0.; finish = 0. } in
  let t0 = now () +. 0.01 in
  let next = ref 0 and lock = Mutex.create () in
  run_threads (Array.length sessions) (fun k ->
      let rec loop () =
        let i = Mutex.protect lock (fun () -> let i = !next in incr next; i) in
        if i < n then begin
          let due = t0 +. offs.(i) in
          let wait = due -. now () in
          if wait > 0. then Unix.sleepf wait;
          let start = now () in
          send k subs.(i);
          timings.(i) <- { A.due; start; finish = now () };
          loop ()
        end
      in
      loop ());
  Array.to_list timings

(* Closed loop: every session sends its next submission as soon as the
   previous verdict is back, until every packet of [subs] is sent or
   [seconds] pass. Returns the submissions decided with the right verdict
   and the seconds the phase took. *)
let closed_loop dep sessions rngs subs ~seconds =
  let n = Array.length subs in
  let next = ref 0 and ok = ref 0 in
  let lock = Mutex.create () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  run_threads (Array.length sessions) (fun k ->
      let rec loop () =
        if now () < deadline then
          match
            Mutex.protect lock (fun () ->
                let i = !next in
                incr next;
                i)
          with
          | i when i >= n -> ()
          | i ->
            if submit dep sessions.(k) rngs.(k) subs.(i) then
              Mutex.protect lock (fun () -> incr ok);
            loop ()
      in
      loop ());
  if !next < n then Printf.eprintf "perfbench: closed loop cut short after %d of %d\n%!" !next n;
  (!ok, now () -. t0)

(* ---------------------------- micro timings ---------------------------- *)

(* Median seconds per call of [f], sampled at least [min_reps] times and
   for at least [budget] seconds; [inner] calls per sample for calls too
   short to time one by one. [prep] runs untimed before each sample. *)
let time_median ?(budget = 0.25) ?(min_reps = 15) ?(inner = 1) ?(prep = ignore) f =
  ignore (f ());
  let samples = ref [] and reps = ref 0 in
  let stop = now () +. budget in
  while (!reps < min_reps || now () < stop) && !reps < 20_000 do
    prep ();
    let t0 = now () in
    for _ = 1 to inner do
      ignore (Sys.opaque_identity (f ()))
    done;
    samples := ((now () -. t0) /. float_of_int inner) :: !samples;
    incr reps
  done;
  A.median !samples

let micro spec rng ~master ~dir (subs : sub array) =
  let afe = spec.afe in
  let circuit = afe.P.Afe.circuit in
  let s = spec.servers in
  let input = spec.input rng in
  let enc = afe.P.Afe.encode ~rng input in
  let mode = P.Client.Robust_snip circuit in
  let payloads = P.Client.payloads ~rng ~mode ~num_servers:s enc in
  let payload_elements = P.Client.payload_elements ~mode ~l:(Array.length enc) in
  let srv =
    P.Server.create ~id:0 ~num_servers:s ~master ~trunc_len:afe.P.Afe.trunc_len
      ~payload_elements
  in
  let sub0 = subs.(0) in
  let share =
    match P.Server.receive srv ~client_id:sub0.cid sub0.pk.P.Client.sealed.(0) with
    | Some (_, share) -> share
    | None -> fail "micro: server 0 refused a sealed packet"
  in
  let ctx = P.Snip.make_batch_ctx ~rng ~circuit ~num_servers:s in
  let st, _ = P.Snip.server_prepare ctx (P.Snip.submission_of_vector circuit share) in
  let cluster_subs = ref 0 in
  let cluster =
    P.Cluster.create ~rng ~mode:P.Cluster.Robust_snip ~circuit
      ~trunc_len:afe.P.Afe.trunc_len ~num_servers:s ~master ()
  in
  (* a fresh packet per call: one the cluster has seen is replay-dropped
     before the SNIP *)
  let cluster_submit () =
    let u = subs.(!cluster_subs) in
    incr cluster_subs;
    P.Cluster.submit cluster ~client_id:u.cid u.pk
  in
  let plain = time_median (fun () -> P.Client.plain_vector ~rng ~mode enc) in
  let with_payloads = time_median (fun () -> P.Client.payloads ~rng ~mode ~num_servers:s enc) in
  (* durability on the deployment's filesystem *)
  let module Ck = P.Checkpoint in
  let width = afe.P.Afe.trunc_len in
  let snapshot =
    {
      Ck.server_id = 0;
      epoch = 0;
      accepted = 1;
      decided_in_epoch = 1;
      journal_seq = 1;
      replay_digest = Bytes.make 32 'd';
      accumulator = Array.make width F.one;
    }
  in
  let key = Prio.Snapshot.derive_key ~master ~server_id:0 in
  let jkey = Prio.Snapshot.derive_journal_key ~master ~server_id:0 in
  let entry seq =
    { Ck.j_seq = seq; j_client = seq; j_accepted = true; j_epoch = 0;
      j_share = Array.make width F.one }
  in
  let ok = function Ok x -> x | Error e -> fail "micro: %s" (Prio.Snapshot.string_of_error e) in
  let append_dir = Filename.concat dir "append" in
  mkdir_p append_dir;
  let _, j = ok (Ck.journal_open ~key:jkey ~dir:append_dir ~server_id:0 ()) in
  let seq = ref 0 in
  let append =
    time_median (fun () ->
        incr seq;
        ok (Ck.journal_append ~fsync:true j (entry !seq)))
  in
  Ck.journal_close j;
  let save = time_median (fun () -> ok (Ck.save ~key ~dir:append_dir snapshot)) in
  (* the longest journal a restart can find under the default snapshot
     cadence (a rotation always snapshots) *)
  let load_dir = Filename.concat dir "load" in
  mkdir_p load_dir;
  ok (Ck.save ~key ~dir:load_dir snapshot);
  let tail_entries = min T.default_tuning.T.checkpoint_every epoch_size - 1 in
  let _, j = ok (Ck.journal_open ~key:jkey ~dir:load_dir ~server_id:0 ()) in
  for k = 1 to tail_entries do
    ok (Ck.journal_append ~fsync:false j (entry (1 + k)))
  done;
  Ck.journal_close j;
  let load =
    time_median (fun () ->
        ignore (ok (Ck.load ~key ~dir:load_dir ~server_id:0 ()));
        let _, j = ok (Ck.journal_open ~key:jkey ~dir:load_dir ~server_id:0 ()) in
        Ck.journal_close j)
  in
  let a = F.of_int 3 and b = F.of_int 5 in
  let ntt_in = Array.init (max 2 (2 * P.Snip.grid_size circuit)) F.of_int in
  let biggest =
    Array.fold_left
      (fun acc p -> if Bytes.length p > Bytes.length acc then p else acc)
      Bytes.empty sub0.pk.P.Client.sealed
  in
  [
    ("afe.encode_s", "s", time_median (fun () -> afe.P.Afe.encode ~rng input));
    ("snip.prove_s", "s", time_median (fun () -> P.Snip.prove ~rng ~circuit ~num_servers:s ~inputs:enc));
    ("client.share_s", "s", with_payloads -. plain);
    ("client.seal_s", "s",
     time_median (fun () -> P.Client.seal ~rng ~client_id:1 ~master payloads));
    ("server.receive_s", "s",
     time_median
       ~prep:(fun () -> Hashtbl.reset srv.P.Server.seen_nonces)
       (fun () -> P.Server.receive srv ~client_id:sub0.cid sub0.pk.P.Client.sealed.(0)));
    ("snip.prepare_s", "s",
     time_median (fun () -> P.Snip.server_prepare ctx (P.Snip.submission_of_vector circuit share)));
    ("snip.decide_s", "s", time_median (fun () -> P.Snip.server_decide_share ctx st ~d:a ~e:b));
    ("server.accumulate_s", "s", time_median ~inner:100 (fun () -> P.Server.accumulate srv share));
    ("cluster.submit_s", "s",
     time_median ~budget:0. ~min_reps:(Array.length subs - 1) cluster_submit);
    ("checkpoint.append_s", "s", append);
    ("checkpoint.save_s", "s", save);
    ("checkpoint.load_s", "s", load);
    ("field.mul_s", "s", time_median ~inner:100_000 (fun () -> F.mul a b));
    ("poly.ntt_s", "s", time_median ~inner:10 (fun () -> P.Ntt.ntt ntt_in));
    ("crypto.hmac_s", "s", time_median ~inner:10 (fun () -> Prio.Hmac.sha256 ~key biggest));
  ]

(* ------------------------------- tracing ------------------------------- *)

(* Span names of the blocking path, in the order a submission meets
   them: client uploads (each admitted by a server), the verify request,
   the leader's and followers' SNIP work, the decision, aggregation and
   the snapshot write. *)
let ledger_layers =
  [ "net.upload"; "server.admit"; "net.verify"; "server.verify"; "server.decide";
    "server.aggregate"; "server.checkpoint" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let print_ledger spec subs (layers, unattributed) =
  let pretty s =
    if Float.abs s >= 1e-3 then Printf.sprintf "%8.3f ms" (s *. 1e3)
    else Printf.sprintf "%8.1f us" (s *. 1e6)
  in
  Printf.printf "ledger %s: traced run, %d submissions, 1 session (median self time)\n"
    spec.name (List.length subs);
  List.iter (fun (n, v) -> Printf.printf "  %-20s %s\n" n (pretty v)) layers;
  Printf.printf "  %-20s %s\n" "unattributed" (pretty unattributed);
  Printf.printf "  %-20s %s\n" "wall" (pretty (A.median (List.map (fun s -> s.A.wall) subs)));
  let largest, _ =
    List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) ("", neg_infinity) layers
  in
  Printf.printf "  largest layer: %s\n" largest

(* --------------------------------- run --------------------------------- *)

type report = { metrics : (string * string * float) list; host : (string * string) list }

let run spec ~seed ~seconds ~trace ~root =
  let rng = Rng.of_string_seed (Printf.sprintf "perfbench/%s/%d" spec.name seed) in
  let master = Rng.bytes rng 32 and batch_seed = Rng.bytes rng 32 in
  let sessions_n = nproc () in
  (* The measured time runs in rounds: an open-loop block and a
     closed-loop slice, each followed by a client probe, a throwaway
     set-up and a follower restart. Other tenants of a shared host slow
     it by up to 2x for stretches of seconds, and only ever add time, so
     throughput, latency_p50_s and client_s report their best phase
     (restore_s and setup_s, the median of all, spread over the run). A
     cost the code pays in some rounds only would escape that, so every
     round does the same work: a closed-loop slice is at most one epoch
     of decisions, and a slice of a whole epoch (small-sum) holds exactly
     one rotation wherever it starts. The median over rounds is printed
     with the per-layer metrics. About a third of the time is open loop,
     two thirds closed loop (on the reference host: the work is
     fixed). *)
  let open_round = seconds *. 0.35 /. float_of_int rounds in
  let closed_round = seconds *. 0.65 /. float_of_int rounds in
  let block = int_of_float (Float.ceil (rate spec *. open_round)) in
  (* each telemetry-ablation run is 1.5 s of the reference host's work *)
  let ablation_s = 1.5 in
  (* everything a client sends is sealed before any timing starts *)
  let setup_probes = seal spec rng ~master ~all_valid:true (1 + (2 * rounds)) in
  (* a closed-loop slice is the work the reference host does in
     [closed_round], up to one epoch; a slice that takes four times that
     is cut short *)
  let per_slice = min epoch_size (int_of_float (spec.capacity *. closed_round)) in
  let round_subs =
    Array.init rounds (fun _ ->
        let o = seal spec rng ~master block in
        (o, seal spec rng ~master per_slice))
  in
  let restore_probes = seal spec rng ~master ~all_valid:true (2 * rounds) in
  (* what a device pays: the median encode-to-packets time of a batch
     sealed apart from the deployment's traffic *)
  let client_points = ref [] in
  let client_probe () =
    let times = ref [] in
    ignore (seal spec rng ~master ~times (max 20 (int_of_float (spec.capacity /. 4.))));
    client_points := A.median !times :: !client_points
  in
  let ablation_subs =
    if trace then
      List.init 5 (fun _ -> seal spec rng ~master (int_of_float (spec.capacity *. ablation_s)))
    else []
  in
  let upload_bytes = float_of_int (fst round_subs.(0)).(0).pk.P.Client.upload_bytes in
  Gc.full_major ();
  let dir k = Filename.concat root k in
  (* set-up: launch to first accepted submission *)
  let setups = ref [] and next_setup = ref 0 in
  let set_up () =
    let r = !next_setup in
    incr next_setup;
    let t0 = now () in
    let d = launch spec ~master ~batch_seed (dir (Printf.sprintf "setup%d" r)) in
    let sess = Net.open_session d.d in
    if not (submit d sess (Rng.split rng) setup_probes.(r)) then fail "set-up probe not accepted";
    setups := (now () -. t0) :: !setups;
    Net.close_session sess;
    d
  in
  let dep = set_up () in
  let sessions = Array.init sessions_n (fun _ -> Net.open_session dep.d) in
  let rngs = Array.init sessions_n (fun _ -> Rng.split rng) in
  let w = open_window dep in
  let restores = ref [] in
  let probes = ref (Array.to_list restore_probes) in
  let next_probe () =
    match !probes with p :: rest -> probes := rest; p | [] -> fail "no restore probe left"
  in
  let blocks = ref [] and throughputs = ref [] in
  (* this process's own RPC figures, taken over the load phases only:
     set-ups, restarts and scrapes fall outside them *)
  let rpc_p50s = ref [] and retries = ref 0 and load_subs = ref 0 in
  let load_phase f =
    Metrics.reset ();
    let before = dep.submitted in
    let r = f () in
    let own = Metrics.snapshot () in
    load_subs := !load_subs + dep.submitted - before;
    (match List.assoc_opt "prio_net_rpc_seconds" own with
    | Some (Metrics.Histogram_v hv) ->
      Option.iter (fun p -> rpc_p50s := p :: !rpc_p50s) (Metrics.percentile hv 0.5)
    | _ -> ());
    (match List.assoc_opt "prio_retry_attempts_total" own with
    | Some (Metrics.Counter_v n) -> retries := !retries + n
    | _ -> ());
    r
  in
  let interlude () =
    client_probe ();
    let d = set_up () in
    check_aggregate spec d;
    shutdown d;
    restores := restore_drill w dep (Rng.split rng) (next_probe ()) :: !restores;
    (* the next phase starts on fresh connections *)
    Array.iteri
      (fun k s ->
        Net.close_session s;
        sessions.(k) <- Net.open_session dep.d)
      sessions
  in
  Array.iter
    (fun (open_subs, closed_subs) ->
      let block =
        load_phase (fun () ->
            open_loop sessions open_subs ~rate:(rate spec) ~sched:(Rng.split rng)
              ~send:(fun k sub -> ignore (submit dep sessions.(k) rngs.(k) sub : bool)))
      in
      blocks := block :: !blocks;
      interlude ();
      let ok, elapsed =
        load_phase (fun () -> closed_loop dep sessions rngs closed_subs ~seconds:(4. *. closed_round))
      in
      throughputs := (float_of_int ok /. elapsed) :: !throughputs;
      interlude ())
    round_subs;
  let window_subs = dep.submitted - w.subs_before in
  let segments =
    List.init (Array.length w.since) (fun i -> (w.since.(i), scrape dep i)) @ w.segments
  in
  let leader = snd (List.hd segments) in
  let server_rss =
    Array.fold_left (fun acc pid -> max acc (rss_bytes pid)) 0 dep.d.Net.pids
  in
  Array.iter Net.close_session sessions;
  check_aggregate spec dep;
  shutdown dep;
  let timings = List.concat !blocks in
  let latencies = A.sorted_of_list (List.map A.latency timings) in
  let round_p50s =
    List.map (fun b -> A.percentile ~pct:50 (A.sorted_of_list (List.map A.latency b))) !blocks
  in
  let lowest = List.fold_left Float.min infinity and highest = List.fold_left Float.max 0. in
  let tail_pct, tail =
    match A.tail latencies with Some t -> t | None -> fail "too few open-loop samples"
  in
  let per_sub name = A.per_unit ~segments ~per:window_subs name in
  let end_to_end =
    [
      ("setup_s", "s", A.median !setups);
      ("throughput_per_s", "1/s", highest !throughputs);
      ("latency_p50_s", "s", lowest round_p50s);
      ("client_s", "s", lowest !client_points);
      ("upload_bytes_per_sub", "B", upload_bytes);
      ("server_bytes_per_sub", "B", per_sub "prio_net_tx_bytes_total");
      ("restore_s", "s", A.median !restores);
      ("server_rss_bytes", "B", float_of_int server_rss);
    ]
  in
  let host =
    [
      ("tail", Printf.sprintf "\"p%d\"" tail_pct);
      ("open_samples", string_of_int (Array.length latencies));
      ("rate", Printf.sprintf "%g" (rate spec));
      ("rounds", string_of_int rounds);
      ("sessions", string_of_int sessions_n);
    ]
  in
  if not trace then { metrics = end_to_end; host }
  else begin
    let leader_p50 name = Option.value ~default:0. (A.histogram_field leader name "p50") in
    let fsync_mean =
      let sum f = List.fold_left (fun acc (_, s) -> acc +. Option.value ~default:0. (A.histogram_field s "prio_journal_fsync_seconds" f)) 0. segments in
      sum "sum" /. Float.max 1. (sum "count")
    in
    let total name = List.fold_left (fun acc (_, s) -> acc +. A.counter s name) 0. segments in
    let scraped =
      [
        ("checkpoint.fsyncs_per_sub", "count",
         per_sub "prio_journal_appends_total" +. per_sub "prio_ckpt_writes_total");
        ("checkpoint.fsync_mean_s", "s", fsync_mean);
        ("net.frames_per_sub", "count", per_sub "prio_net_tx_frames_total");
        ("net.rpc_p50_s", "s", if !rpc_p50s = [] then 0. else A.median !rpc_p50s);
        ("net.stage_admit_p50_s", "s", leader_p50 "prio_stage_admit_seconds");
        ("net.stage_verify_p50_s", "s", leader_p50 "prio_stage_verify_seconds");
        ("net.retries_per_sub", "count",
         float_of_int !retries /. float_of_int !load_subs);
        ("net.shed_ratio", "ratio",
         per_sub "prio_net_shed_total" /. float_of_int spec.servers);
        ("net.commit_repairs", "count", total "prio_commit_repairs_total");
        ("gen.lag_p99_s", "s", A.percentile ~pct:99 (A.sorted_of_list (List.map A.lag timings)));
        ("gen.backlog_max", "count",
         float_of_int (List.fold_left (fun acc b -> max acc (A.backlog_max b)) 0 !blocks));
      ]
    in
    (* telemetry ablation: one session, closed loop, a fresh deployment
       each; metrics on and off alternate (on, off, off, on) so a drift
       of the host over the four cancels out *)
    let one_session ?trace_dir ?recorder ~metrics ~seconds subs name =
      if not metrics then Metrics.disable ();
      Fun.protect
        ~finally:(fun () ->
          Metrics.enable ();
          Trace.uninstall ())
        (fun () ->
          let d = launch spec ~master ~batch_seed ?trace_dir (dir name) in
          (* after the fork: traced servers install their own recorders *)
          Option.iter Trace.install recorder;
          let sess = [| Net.open_session d.d |] in
          let ok, elapsed = closed_loop d sess [| Rng.split rng |] subs ~seconds in
          let thr = float_of_int ok /. elapsed in
          Net.close_session sess.(0);
          Trace.uninstall ();
          check_aggregate spec d;
          shutdown d;
          thr)
    in
    let recorder = Trace.create ~capacity:(1 lsl 18) ~origin:"client" () in
    let thr_on, thr_off, thr_traced =
      match ablation_subs with
      | [ on1; off1; off2; on2; traced ] ->
        let seconds = 4. *. ablation_s in
        let on1 = one_session ~metrics:true ~seconds on1 "on1" in
        let off1 = one_session ~metrics:false ~seconds off1 "off1" in
        let off2 = one_session ~metrics:false ~seconds off2 "off2" in
        let on2 = one_session ~metrics:true ~seconds on2 "on2" in
        let trace_dir = dir "spans" in
        mkdir_p trace_dir;
        let traced =
          one_session ~trace_dir ~recorder ~metrics:true ~seconds traced "traced"
        in
        ((on1 +. on2) /. 2., (off1 +. off2) /. 2., traced)
      | _ -> assert false
    in
    let trace_dir = dir "spans" in
    let dumps =
      Trace.to_jsonl recorder
      :: (Array.to_list (Sys.readdir trace_dir)
         |> List.sort compare
         |> List.map (fun f -> read_file (Filename.concat trace_dir f)))
    in
    let subs = A.ledger ~root:"net.submit" (Trace.merge dumps) in
    if subs = [] then fail "traced run recorded no submissions";
    let layers, unattributed = A.layer_medians ~names:ledger_layers subs in
    print_ledger spec subs (layers, unattributed);
    let micro = micro spec rng ~master ~dir:(dir "micro") (seal spec rng ~master 24) in
    let per_layer =
      (* the open-loop tail swings with the host's disk and CPU by more
         than any regression bound, so it is reported here, ungated *)
      (("latency_tail_s", "s", tail)
       :: ("throughput.round_median_per_s", "1/s", A.median !throughputs)
       :: ("latency_p50.round_median_s", "s", A.median round_p50s)
       :: micro)
      @ scraped
      @ [
          ("obs.metrics_overhead", "ratio", thr_off /. thr_on);
          ("obs.trace_overhead", "ratio", thr_on /. thr_traced);
        ]
      @ List.map (fun (n, v) -> ("trace." ^ n ^ "_self_s", "s", v)) layers
      @ [ ("trace.unattributed_s", "s", unattributed) ]
    in
    { metrics = per_layer; host }
  end

(* ------------------------------- output -------------------------------- *)

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct metrics =
  let body =
    List.map
      (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed (String.concat ", " body)

(* ------------------------------ comparison ----------------------------- *)

(* Read a file of benchmark outputs: its host facts and result lines. *)
let read_results path =
  let lines = String.split_on_char '\n' (read_file path) in
  let hosts =
    List.filter_map
      (fun l ->
        if String.length l > 5 && String.sub l 0 5 = "host " then
          Some (A.parse_json (String.sub l 5 (String.length l - 5)))
        else None)
      lines
  in
  let results =
    List.filter_map
      (fun l ->
        if String.length l > 12 && String.sub l 0 12 = "{\"correct\": " then
          Some (A.parse_json l)
        else None)
      lines
  in
  (hosts, results)

let compare_files a b =
  let ha, ra = read_results a and hb, rb = read_results b in
  let fact k h = match A.member k h with Some (A.Str s) -> s | Some (A.Num n) -> json_number n | _ -> "?" in
  let facts k hs = List.sort_uniq compare (List.map (fact k) hs) in
  let refuse =
    List.filter_map
      (fun k ->
        match (facts k ha, facts k hb) with
        | [ x ], [ y ] when x = y -> None
        | xs, ys ->
          Some (Printf.sprintf "%s differs: %s vs %s" k (String.concat "," xs) (String.concat "," ys)))
      [ "cores"; "fs"; "workload" ]
  in
  if refuse <> [] then begin
    List.iter (Printf.eprintf "perfbench: refusing to compare: %s\n") refuse;
    exit 2
  end;
  let values rs name =
    List.filter_map
      (fun r -> A.num (Option.bind (A.member "metrics" r) (fun m -> Option.bind (A.member name m) (A.member "value"))))
      rs
  in
  let names =
    List.concat_map (fun r -> match A.member "metrics" r with Some (A.Obj fs) -> List.map fst fs | _ -> []) (ra @ rb)
    |> List.sort_uniq compare
  in
  (* median and spread (quartile distance over median, as the regression
     bounds are stated) of each side *)
  let stats vs =
    match vs with
    | [ v ] -> (v, nan)
    | vs ->
      let _, med, _ = A.quartiles vs in
      (med, A.iqr_share vs)
  in
  Printf.printf "%-28s %4s %14s %7s %4s %14s %7s %8s\n" "metric" "n" "A median" "spread" "n"
    "B median" "spread" "B/A";
  List.iter
    (fun n ->
      match (values ra n, values rb n) with
      | (_ :: _ as va), (_ :: _ as vb) ->
        let ma, sa = stats va and mb, sb = stats vb in
        Printf.printf "%-28s %4d %14.6g %7.3f %4d %14.6g %7.3f %8.3f\n" n (List.length va) ma sa
          (List.length vb) mb sb (mb /. ma)
      | _ -> ())
    names

(* --------------------------------- main -------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload small-sum|wide-bits --seed N --seconds S --trace 0|1\n\
    \       main.exe --compare RESULTS_A RESULTS_B";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--compare"; a; b ] -> compare_files a b
  | _ ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let spec =
      match List.find_opt (fun w -> w.name = get "workload") workloads with
      | Some w -> w
      | None -> usage ()
    in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
    if seconds < 2 || (trace <> 0 && trace <> 1) then usage ();
    let base = ".perfbench-run" in
    let root = Filename.concat base (string_of_int (Unix.getpid ())) in
    mkdir_p root;
    let cleanup () =
      List.iter (fun d -> try shutdown d with _ -> ()) !live_deps;
      rm_rf root;
      try Unix.rmdir base with Unix.Unix_error _ -> ()
    in
    (* a run must end within its time limit even if a server wedges *)
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           prerr_endline "perfbench: run exceeded its time limit";
           cleanup ();
           exit 1));
    ignore (Unix.alarm 170);
    let fs = fs_type root in
    match run spec ~seed ~seconds:(float_of_int seconds) ~trace:(trace = 1) ~root with
    | r ->
      cleanup ();
      let host =
        [
          ("workload", Printf.sprintf "%S" spec.name);
          ("seed", string_of_int seed);
          ("cores", string_of_int (nproc ()));
          ("fs", Printf.sprintf "%S" fs);
          ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
        ]
        @ r.host
      in
      Printf.printf "host {%s}\n"
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) host));
      let correct = !failed = 0 in
      if correct then print_result ~correct r.metrics
      else begin
        print_result ~correct [];
        exit 1
      end
    | exception e ->
      cleanup ();
      Printf.eprintf "perfbench: %s\n%!"
        (match e with Run_failed s -> s | e -> Printexc.to_string e);
      if !failed > 0 then print_result ~correct:false [];
      exit 1

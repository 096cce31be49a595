(* A fault-tolerant multi-process deployment: five Prio server processes
   on loopback TCP sockets, clients uploading sealed packets through a
   deliberately lossy wire (seeded fault injection + retry with backoff),
   a follower SIGKILLed mid-run with the leader degrading gracefully,
   health probes driving the supervisor's restart decision, and a
   durability drill where a checkpointing deployment survives the same
   crash with no accepted contribution lost.

   The telemetry plane runs across all the processes: the parent records
   its spans under origin "client", every server process (trace_dir set)
   records its own under origin "server<id>" and dumps JSONL on clean
   shutdown, and submission frames carry trace context over the wire —
   so after shutdown the per-process dumps merge into one causally
   ordered tree in which a client's submission span is the ancestor of
   the admit/verify/aggregate spans on every server that handled it.
   Server metrics are scraped live over TCP while the deployment runs.

   Run with: dune exec examples/tcp_deployment.exe *)

open Core
module P = Prio.Make (Prio.F87)
module Net = P.Net
module T = Prio.Transport
module Faults = Prio.Faults
module Retry = Prio.Retry
module Trace = Prio.Obs_trace

let attrs_str = function
  | [] -> ""
  | attrs ->
    " ["
    ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
    ^ "]"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let describe_probe = function
  | Net.Probe_ok h ->
    Printf.sprintf "ok (epoch=%d pending=%d accepted=%d)" h.T.h_epoch
      h.T.h_pending h.T.h_accepted
  | Net.Probe_degraded (_, why) -> "degraded: " ^ why
  | Net.Probe_unreachable e ->
    "unreachable: " ^ T.string_of_protocol_error e
  | Net.Probe_dead _ -> "dead (process reaped)"

let () =
  let recorder = Trace.create ~capacity:65536 ~origin:"client" () in
  Trace.install recorder;
  let trace_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prio-example-trace-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir trace_dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
  let rng = Prio.Rng.of_string_seed "tcp-example" in
  let afe = P.Afe_sum.sum ~bits:8 in
  let cfg =
    Net.
      {
        circuit = afe.P.Afe.circuit;
        trunc_len = afe.P.Afe.trunc_len;
        num_servers = 5;
        master = Prio.Rng.bytes rng 32;
        batch_seed = Prio.Rng.bytes rng 32;
      }
  in
  (* short deadlines: a dropped frame costs [io_timeout] of real waiting *)
  let tuning =
    T.
      {
        default_tuning with
        io_timeout = 0.4;
        dial_timeout = 1.0;
        select_tick = 0.02;
        trace_dir = Some trace_dir;
        backoff =
          Retry.
            {
              default_backoff with
              max_attempts = 8;
              base_delay = 0.01;
              max_delay = 0.1;
            };
      }
  in
  let d = Net.launch ~tuning cfg in
  Printf.printf "launched %d server processes (pids:%s)\n" cfg.Net.num_servers
    (Array.fold_left (fun acc pid -> acc ^ " " ^ string_of_int pid) "" d.Net.pids);

  (* --- honest clients over a lossy wire: every frame has a 10% chance
     of silently vanishing; retries + idempotent servers get them all
     through, and nothing is double-counted --- *)
  let faults = Faults.create ~seed:"lossy-wire" (Faults.drop 0.1) in
  let values = List.init 12 (fun i -> (i * 13) mod 256) in
  let accepted = ref 0 in
  List.iteri
    (fun i x ->
      match
        Net.submit_outcome ~faults d ~rng ~client_id:i (afe.P.Afe.encode ~rng x)
      with
      | Net.Accepted -> incr accepted
      | Net.Rejected why -> Printf.printf "  client %d rejected: %s\n" i why
      | Net.Unreachable e ->
        Printf.printf "  client %d unreachable: %s\n" i
          (T.string_of_protocol_error e))
    values;
  Printf.printf "lossy wire: %d/%d accepted (%d frames faulted, all retried)\n"
    !accepted (List.length values) (Faults.injected faults);

  (* --- live metrics scrape: pull the leader's per-stage latency
     histograms out of the running process over the wire ([q] frame) —
     the registry lives in the server process, not ours --- *)
  (match T.scrape_metrics ~tuning d.Net.addrs.(0) with
  | Error e ->
    Printf.printf "live scrape failed: %s\n" (T.string_of_protocol_error e)
  | Ok text ->
    print_endline "live scrape of the leader (per-stage samples):";
    List.iter
      (fun line ->
        let is_prefix p =
          String.length line >= String.length p
          && String.sub line 0 (String.length p) = p
        in
        if
          (is_prefix "prio_stage_" && not (String.contains line '{'))
          || is_prefix "prio_net_pending_depth"
        then print_endline ("  " ^ line))
      (String.split_on_char '\n' text));

  (* a malicious client tries its luck against the real wire protocol *)
  let bad = afe.P.Afe.encode ~rng 3 in
  bad.(0) <- P.Field.of_int 100_000;
  let cheater_ok = Net.submit d ~rng ~client_id:9999 bad in
  Printf.printf "cheating client accepted: %b\n" cheater_ok;

  (* collect before the crash drill: shares on a killed server die with it *)
  let accumulators =
    match Net.collect_aggregate d with
    | Ok v -> v
    | Error (i, e) ->
      Printf.eprintf "server %d unreachable: %s\n"
        i (Prio.Transport.string_of_protocol_error e);
      exit 1
  in
  let total = afe.P.Afe.decode ~n:!accepted accumulators in
  let expect = List.fold_left ( + ) 0 values in
  Printf.printf "aggregate: %s (expected %d)\n" (Prio.Bigint.to_string total)
    expect;

  (* --- crash drill: hand-deliver one more client's shares so every
     server holds them, then SIGKILL a follower *between* upload and
     verification (a normal client would fail at dial and never reach
     the leader). The leader must refuse the verify cleanly (no hangs),
     and the health-probe sweep — not just process liveness — must
     drive the supervisor's restart decision. Everything below happens
     silently — the report afterwards is read back out of the trace
     recorder, not hand-printed as we go --- *)
  let drill_mark = List.length (Trace.spans recorder) in
  let exchange addr frame =
    match T.dial addr with
    | Error e -> Error e
    | Ok fd ->
      let r =
        match T.write_frame ~deadline:(Retry.after 2.0) fd frame with
        | Error e -> Error e
        | Ok () -> T.read_frame ~deadline:(Retry.after 5.0) fd
      in
      Unix.close fd;
      r
  in
  let pk =
    P.Client.submit ~rng
      ~mode:(P.Client.Robust_snip afe.P.Afe.circuit)
      ~num_servers:5 ~client_id:100 ~master:cfg.Net.master
      (afe.P.Afe.encode ~rng 1)
  in
  Trace.with_span "net.submit" ~attrs:[ ("client", "100") ] (fun () ->
      Array.iteri
        (fun i sealed ->
          let p =
            T.tagged 'P'
              (Bytes.cat (T.put_u32 100) (Bytes.cat (T.ctx_bytes ()) sealed))
          in
          match exchange d.Net.addrs.(i) p with
          | Ok r when Bytes.length r > 0 && Bytes.get r 0 = 'K' -> ()
          | Ok _ | Error _ -> failwith "drill upload failed")
        pk.P.Client.sealed);
  Unix.kill d.Net.pids.(3) Sys.sigkill;
  Unix.sleepf 0.1;
  let first_sweep = Net.probe_deployment d in
  let follower_down =
    match first_sweep.(3) with
    | Net.Probe_dead _ -> true
    | Net.Probe_ok _ | Net.Probe_degraded _ | Net.Probe_unreachable _ -> false
  in
  (* verification forces a gossip round: the leader hits the dead
     follower, refuses this submission cleanly, and drops its cached
     link to the corpse *)
  let refusal = exchange d.Net.addrs.(0) (T.tagged 'V' (T.put_u32 100)) in
  let leader_alive =
    match (Net.poll_servers d).(0) with Net.Running -> true | Net.Exited _ -> false
  in
  (* the failed gossip round made the leader drop its cached link to the
     corpse: a second sweep now sees the leader *degraded*, not just the
     follower dead — signal liveness polling alone cannot produce *)
  let second_sweep = Net.probe_deployment d in
  (* probe-driven supervision revives the dead follower on its original
     port; new traffic flows again. Without checkpointing the revived
     process starts from empty state, so the dead server's accumulator
     shares are gone and the damaged collection window must be discarded
     — the durability drill below runs the same crash with snapshots on
     and keeps every accepted contribution *)
  let restarted = Net.supervise d in
  let post_restart_ok = Net.submit d ~rng ~client_id:101 (afe.P.Afe.encode ~rng 42) in

  print_endline "crash drill, as the health probes and the trace saw it:";
  Printf.printf "  probe sweep after the kill:    srv3 %s\n"
    (describe_probe first_sweep.(3));
  Printf.printf "  probe sweep after the refusal: srv0 %s\n"
    (describe_probe second_sweep.(0));
  Printf.printf "  supervise restarted:          %s\n"
    (String.concat ", " (List.map string_of_int restarted));
  let drill_spans =
    List.filteri (fun i _ -> i >= drill_mark) (Trace.spans recorder)
  in
  List.iter
    (fun (sp : Trace.span) ->
      match (sp.Trace.kind, sp.Trace.name) with
      | ( Trace.Event,
          (( "supervisor.exited" | "supervisor.restarted"
           | "supervisor.unreachable" | "retry" | "net.rejected"
           | "net.unreachable" ) as name) ) ->
        Printf.printf "  %-22s%s\n" name (attrs_str sp.Trace.attrs)
      | _ -> ())
    drill_spans;
  assert follower_down;
  assert leader_alive;
  assert (restarted = [ 3 ]);
  assert (match second_sweep.(0) with Net.Probe_degraded _ -> true | _ -> false);
  (match refusal with
  | Ok r when Bytes.length r > 0 && Bytes.get r 0 = 'R' ->
    print_endline "  degraded leader refused the verify cleanly ([R])"
  | Ok r when Bytes.length r > 0 && Bytes.get r 0 = 'E' ->
    Printf.printf "  degraded leader refused the verify cleanly: %s\n"
      (match T.parse_error_frame r with
      | Some (_, detail) -> detail
      | None -> "garbled E frame")
  | Ok r ->
    Printf.printf "  unexpected verify reply tag %C\n"
      (if Bytes.length r > 0 then Bytes.get r 0 else '?')
  | Error e ->
    Printf.printf "  verify failed: %s\n" (T.string_of_protocol_error e));
  assert (
    match refusal with
    | Ok r ->
      Bytes.length r > 0 && (Bytes.get r 0 = 'E' || Bytes.get r 0 = 'R')
    | Error _ -> false);
  Printf.printf "post-restart submission accepted: %b\n" post_restart_ok;

  Net.shutdown d;
  print_endline "servers shut down cleanly";

  (* --- stitch the telemetry plane back together: the parent's recorder
     plus every server dump that survived. Server 3 was SIGKILLed, so its
     pre-crash spans died with it — its dump (written by the *restarted*
     process at shutdown) starts after the revival, and the merge
     tolerates the gap --- *)
  let server_dumps =
    List.filter_map
      (fun i ->
        let p = Filename.concat trace_dir (Printf.sprintf "server%d.jsonl" i) in
        if Sys.file_exists p then Some (i, read_file p) else None)
      [ 0; 1; 2; 3; 4 ]
  in
  Printf.printf "server dumps found: %s\n"
    (String.concat ", "
       (List.map (fun (i, _) -> Printf.sprintf "server%d" i) server_dumps));
  let merged =
    Trace.merge (Trace.to_jsonl recorder :: List.map snd server_dumps)
  in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun m -> Hashtbl.replace by_id m.Trace.m_id m) merged;
  let rec has_ancestor id target =
    match Hashtbl.find_opt by_id id with
    | None -> false
    | Some m -> (
      match m.Trace.m_parent with
      | None -> false
      | Some p -> p = target || has_ancestor p target)
  in
  (* client 0's submission: its span must be the ancestor of spans on the
     leader *and* on followers — the wire-propagated trace context at
     work across five processes *)
  let root =
    List.find
      (fun m ->
        m.Trace.m_name = "net.submit"
        && List.assoc_opt "client" m.Trace.m_attrs = Some "0")
      merged
  in
  let under = List.filter (fun m -> has_ancestor m.Trace.m_id root.Trace.m_id) merged in
  let origins_under name =
    List.sort_uniq compare
      (List.filter_map
         (fun m ->
           if m.Trace.m_name = name then Some m.Trace.m_origin else None)
         under)
  in
  Printf.printf
    "merged trace: %d spans across %d dumps; under client 0's submission:\n"
    (List.length merged)
    (1 + List.length server_dumps);
  Printf.printf "  server.admit on:  %s\n"
    (String.concat ", " (origins_under "server.admit"));
  Printf.printf "  server.verify on: %s\n"
    (String.concat ", " (origins_under "server.verify"));
  (* server3 was SIGKILLed mid-run: its pre-crash spans (including
     client 0's admit) died un-dumped with the process, so exactly the
     four surviving processes appear under the submission *)
  assert (
    origins_under "server.admit"
    = [ "server0"; "server1"; "server2"; "server4" ]);
  assert (List.mem "server0" (origins_under "server.verify"));
  assert (List.exists (fun o -> o <> "server0") (origins_under "server.verify"));
  (* one submission, rendered as the merged cross-process tree *)
  let depth_of m =
    let rec go acc = function
      | None -> acc
      | Some p ->
        go (acc + 1)
          (match Hashtbl.find_opt by_id p with
          | None -> None
          | Some pm -> pm.Trace.m_parent)
    in
    go 0 m.Trace.m_parent
  in
  print_endline "client 0's submission, stitched across processes:";
  List.iter
    (fun m ->
      if m.Trace.m_id = root.Trace.m_id || has_ancestor m.Trace.m_id root.Trace.m_id
      then
        Printf.printf "  %s[%s] %s%s\n"
          (String.make (2 * depth_of m) ' ')
          m.Trace.m_origin m.Trace.m_name (attrs_str m.Trace.m_attrs))
    merged;

  (* --- durability drill: the same SIGKILL, but against a deployment
     that journals every decision and persists HMAC-authenticated
     snapshots. The restarted follower resumes from its snapshot plus the
     journal records since it, so the aggregate
     collected at the end still covers every value accepted before the
     crash — nothing lost, nothing double-counted --- *)
  let ckpt_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prio-example-ckpt-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir ckpt_dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
  let d2 =
    Net.launch
      ~tuning:T.{ tuning with checkpoint_dir = Some ckpt_dir }
      Net.{ cfg with num_servers = 3 }
  in
  let pre_crash = [ 11; 22; 33; 44 ] and post_crash = [ 55; 66 ] in
  List.iteri
    (fun i x -> assert (Net.submit d2 ~rng ~client_id:i (afe.P.Afe.encode ~rng x)))
    pre_crash;
  Unix.kill d2.Net.pids.(1) Sys.sigkill;
  let rec wait_dead () =
    match (Net.poll_servers d2).(1) with
    | Net.Exited _ -> ()
    | Net.Running ->
      Unix.sleepf 0.01;
      wait_dead ()
  in
  wait_dead ();
  Net.restart_server d2 1;
  List.iteri
    (fun i x ->
      assert (Net.submit d2 ~rng ~client_id:(100 + i) (afe.P.Afe.encode ~rng x)))
    post_crash;
  let survived =
    match Net.collect_aggregate d2 with
    | Ok sigma ->
      afe.P.Afe.decode ~n:(List.length pre_crash + List.length post_crash) sigma
    | Error (i, e) ->
      Printf.eprintf "server %d unreachable: %s\n" i
        (T.string_of_protocol_error e);
      exit 1
  in
  let want = List.fold_left ( + ) 0 (pre_crash @ post_crash) in
  Printf.printf
    "durability drill: follower killed and restored from snapshot + journal; aggregate %s \
     (expected %d) — pre-crash shares survived\n"
    (Prio.Bigint.to_string survived) want;
  assert (Prio.Bigint.to_string survived = string_of_int want);
  Net.shutdown d2;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat ckpt_dir f) with Sys_error _ -> ())
    (Sys.readdir ckpt_dir);
  (try Unix.rmdir ckpt_dir with Unix.Unix_error _ -> ());

  (* --- commit-window drill: a follower killed at the worst possible
     instant — the leader's decision received, not yet journaled or
     acked. Two-phase commit means the client ack is withheld
     (commit-pending), the resubmission re-seeds the restored follower
     and drives the repair re-broadcast, and the share still counts
     exactly once. Under fire-and-forget this exact schedule silently
     loses the follower's copy of the share --- *)
  let commit_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prio-example-commit-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir commit_dir 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
  (* [faults_for] runs in each forked server, so the one-shot disarm
     flag lives on the shared filesystem: the first launch of server 2
     consumes it, the supervisor's restart finds it gone *)
  let armed = Filename.concat commit_dir "fault-armed" in
  close_out (open_out armed);
  let faults_for id =
    if id = 2 && Sys.file_exists armed then begin
      (try Sys.remove armed with Sys_error _ -> ());
      Some
        (Faults.create ~seed:"commit-window" (Faults.crash_on ~tags:"a" 1.0))
    end
    else None
  in
  let d3 =
    Net.launch
      ~tuning:T.{ tuning with checkpoint_dir = Some commit_dir }
      ~faults_for
      Net.{ cfg with num_servers = 3 }
  in
  let drill_values = [ 7; 9; 4 ] in
  let crashes = ref 0 in
  let revive () =
    Array.iteri
      (fun i st ->
        match st with
        | Net.Exited (Unix.WEXITED 70) ->
          incr crashes;
          Net.restart_server d3 i
        | Net.Exited _ -> Net.restart_server d3 i
        | Net.Running -> ())
      (Net.poll_servers d3)
  in
  List.iteri
    (fun i x ->
      (* seal once, resubmit the same packets: the repair path keys on
         the client id, so a retry is the same submission, not a new one *)
      let pk =
        P.Client.submit ~rng
          ~mode:(P.Client.Robust_snip afe.P.Afe.circuit)
          ~num_servers:3 ~client_id:i ~master:d3.Net.cfg.Net.master
          (afe.P.Afe.encode ~rng x)
      in
      let rec attempt tries =
        match Net.submit_packets_outcome d3 ~rng ~client_id:i pk with
        | Net.Accepted -> ()
        | (Net.Rejected _ | Net.Unreachable _) when tries < 5 ->
          revive ();
          attempt (tries + 1)
        | Net.Rejected why -> failwith ("commit drill: rejected: " ^ why)
        | Net.Unreachable e ->
          failwith ("commit drill: " ^ T.string_of_protocol_error e)
      in
      attempt 0)
    drill_values;
  revive ();
  let committed =
    match Net.collect_aggregate d3 with
    | Ok sigma -> afe.P.Afe.decode ~n:(List.length drill_values) sigma
    | Error (i, e) ->
      Printf.eprintf "server %d unreachable: %s\n" i
        (T.string_of_protocol_error e);
      exit 1
  in
  let want_commit = List.fold_left ( + ) 0 drill_values in
  Printf.printf
    "commit-window drill: follower crashed between decision and ack \
     (%d crash), client resubmitted, repair completed; aggregate %s \
     (expected %d)\n"
    !crashes
    (Prio.Bigint.to_string committed)
    want_commit;
  assert (!crashes = 1);
  assert (Prio.Bigint.to_string committed = string_of_int want_commit);
  Net.shutdown d3;
  Array.iter
    (fun f ->
      try Sys.remove (Filename.concat commit_dir f) with Sys_error _ -> ())
    (Sys.readdir commit_dir);
  (try Unix.rmdir commit_dir with Unix.Unix_error _ -> ());

  (* --- the recorder self-check: the run above must have produced spans
     for every client-side protocol phase, plus at least one retry and
     one injected fault (the seeded chaos makes this deterministic) --- *)
  let names =
    List.map (fun sp -> sp.Trace.name) (Trace.spans recorder)
  in
  let has n = List.mem n names in
  List.iter
    (fun n -> if not (has n) then failwith ("trace is missing span " ^ n))
    [ "net.submit"; "net.upload"; "net.verify"; "net.rpc"; "net.collect";
      "client.prove"; "client.share"; "client.seal"; "snip.prove" ];
  if not (has "retry") then failwith "trace recorded no retry event";
  if not (has "fault") then failwith "trace recorded no fault event";
  if not (has "supervisor.exited" && has "supervisor.restarted") then
    failwith "trace missed the follower death/restart";

  let path = "tcp_deployment_trace.jsonl" in
  let oc = open_out path in
  output_string oc (Trace.to_jsonl recorder);
  close_out oc;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat trace_dir f) with Sys_error _ -> ())
    (Sys.readdir trace_dir);
  (try Unix.rmdir trace_dir with Unix.Unix_error _ -> ());
  Trace.uninstall ();
  Printf.printf
    "trace self-check passed: %d spans/events recorded (retries, faults, and \
     every protocol phase present); full trace written to %s\n"
    (List.length names) path

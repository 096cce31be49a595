(* The socket-free server core, driven in one process: three [Net.Node]s
   joined by in-memory links, each with an in-memory decision journal and
   snapshot. No fork, no sockets, no clock — so every crash point of a
   submission stream can be visited in turn, which the fork-based @net
   drills can only sample, and the leader's rounds can be interleaved
   step by step. *)

module F = Prio_field.F87
module Net = Prio_proto.Net.Make (F)
module NetT = Prio_proto.Net
module Ck = Prio_proto.Checkpoint.Make (F)
module Wire = Prio_proto.Wire.Make (F)
module Sum = Prio_afe.Sum.Make (F)
module A = Prio_afe.Afe.Make (F)
module Rng = Prio_crypto.Rng
module Sv = Prio_proto.Server.Make (F)
module C = Prio_circuit.Circuit.Make (F)

let num_servers = 3
let rng = Rng.of_string_seed "node-tests"
let afe = Sum.sum ~bits:4

let cfg =
  Net.
    {
      circuit = afe.A.circuit;
      trunc_len = afe.A.trunc_len;
      num_servers;
      master = Rng.bytes rng 32;
      batch_seed = Rng.bytes rng 32;
    }

(* One verification context, built before any node exists, as
   [Net.launch] builds it before forking: all three nodes and every
   restore after a crash run on it. *)
let context = Net.Node.context cfg

(* a snapshot every other decision, so restores mix snapshot and journal
   replay *)
let tuning = { NetT.default_tuning with checkpoint_every = 2 }

(* A crash of node [node] at its [append]-th journal append, just before
   the record is written or just after. *)
type fault = { node : int; append : int; after : bool }

exception Crash

type cluster = {
  cx : Net.Node.context;
  mutable nodes : Net.Node.t array;
  snaps : Ck.snapshot option array;  (** last snapshot per node *)
  journals : Ck.journal_entry list array;  (** newest first *)
  appends : int array;  (** journal appends attempted per node *)
  mutable fault : fault option;
  mutable crashes : int;
  links : Bytes.t Queue.t array;
      (** per follower: frames the leader posted that it has not handled *)
  replies : Bytes.t Queue.t array;
      (** per follower: its replies the leader has not handled *)
  mutable posted : (char * int) list;  (** every leader post, newest first *)
}

(* Run [f] on the leader. A leader that crashes in it loses every link:
   the frames on them and the [V]s its rounds would have answered. *)
let on_leader c f =
  try f c.nodes.(0)
  with Crash ->
    Array.iter Queue.clear c.links;
    Array.iter Queue.clear c.replies

(* Hand [frame] to node [k] from a client connection answered by
   [respond]. A node that crashes while handling it answers nothing. *)
let deliver c k frame respond =
  match Net.Node.handle c.nodes.(k) (Net.Node.Client respond) frame with
  | _ -> ()
  | exception Crash -> ()

(* One step of the network: the next frame on follower [j]'s link in one
   direction. A follower that crashes on a frame takes its link down, and
   the leader hears of it as one failure. *)
let step c = function
  | `Link j -> (
    let frame = Queue.pop c.links.(j) in
    let respond reply = Queue.push reply c.replies.(j) in
    match Net.Node.handle c.nodes.(j + 1) (Net.Node.Client respond) frame with
    | _ -> ()
    | exception Crash ->
      Queue.clear c.links.(j);
      Queue.clear c.replies.(j);
      on_leader c (fun n -> Net.Node.follower_failed n j (NetT.Closed "crashed")))
  | `Reply j ->
    let frame = Queue.pop c.replies.(j) in
    on_leader c (fun n -> ignore (Net.Node.handle n (Net.Node.Follower j) frame))

(* The steps that can be taken now, each link's frames in order. *)
let ready c =
  List.concat
    (List.init (num_servers - 1) (fun j ->
         (if Queue.is_empty c.replies.(j) then [] else [ `Reply j ])
         @ if Queue.is_empty c.links.(j) then [] else [ `Link j ]))

(* Run the network until no frame is in flight: the first ready step
   each time, or a seeded choice among them with [sched]. *)
let rec pump ?sched c =
  match ready c with
  | [] -> ()
  | steps ->
    step c
      (match sched with
      | None -> List.hd steps
      | Some rng -> List.nth steps (Rng.int_below rng (List.length steps)));
    pump ?sched c

let rec make_node c i =
  let send j payload =
    c.posted <- (Bytes.get payload 0, NetT.get_u32 payload 1) :: c.posted;
    Queue.push payload c.links.(j)
  in
  let drop j =
    Queue.clear c.links.(j);
    Queue.clear c.replies.(j)
  in
  let crash_at after =
    match c.fault with
    | Some f when f.node = i && f.append = c.appends.(i) && f.after = after ->
      c.fault <- None;
      c.crashes <- c.crashes + 1;
      (* the process dies: its memory is gone, its journal and last
         snapshot stay, and the supervisor restarts it from them *)
      c.nodes.(i) <- restore c i;
      raise Crash
    | _ -> ()
  in
  let journal entry =
    c.appends.(i) <- c.appends.(i) + 1;
    crash_at false;
    c.journals.(i) <- entry :: c.journals.(i);
    crash_at true;
    true
  in
  let snapshot state =
    c.snaps.(i) <- Some (Ck.of_server state);
    c.journals.(i) <- []
  in
  Net.Node.create ~tuning c.cx ~id:i { send; drop; journal; snapshot }

and restore c i =
  let n = make_node c i in
  Option.iter (fun s -> Ck.apply s (Net.Node.server n)) c.snaps.(i);
  Net.Node.replay n (List.rev c.journals.(i));
  n

let cluster ?fault ?(cx = context) () =
  let c =
    {
      cx;
      nodes = [||];
      snaps = Array.make num_servers None;
      journals = Array.make num_servers [];
      appends = Array.make num_servers 0;
      fault;
      crashes = 0;
      links = Array.init (num_servers - 1) (fun _ -> Queue.create ());
      replies = Array.init (num_servers - 1) (fun _ -> Queue.create ());
      posted = [];
    }
  in
  c.nodes <- Array.init num_servers (make_node c);
  c

(* A client frame: client_id ‖ ctx ‖ body. *)
let frame ~client_id tag body =
  NetT.tagged tag
    (Bytes.concat Bytes.empty [ NetT.put_u32 client_id; NetT.ctx_bytes (); body ])

(* One request to node [k] and its answer, once the network has run. A
   request that hits a crash is retried against the restarted server, as
   the client's backoff would. *)
let rec call c k frame =
  let crashes = c.crashes and answer = ref None in
  deliver c k frame (fun reply -> answer := Some reply);
  pump c;
  match !answer with
  | Some reply -> reply
  | None when c.crashes > crashes -> call c k frame
  | None -> Alcotest.fail "a request went unanswered"

(* The client's submission, as [Net.submit_packets_session] runs it: [P]
   to every server, then [V] to the leader, and the whole round again on
   a [Commit_pending] reply, up to 4 rounds. *)
let submit c ~client_id (pk : Net.Client.packets) =
  let rec round r =
    let acked =
      Array.for_all Fun.id
        (Array.mapi
           (fun k sealed ->
             Bytes.get (call c k (frame ~client_id 'P' sealed)) 0 = 'K')
           pk.Net.Client.sealed)
    in
    if not acked then false
    else
      let reply = call c 0 (frame ~client_id 'V' Bytes.empty) in
      match (Bytes.get reply 0, NetT.parse_error_frame reply) with
      | 'K', _ -> true
      | 'E', Some (NetT.Commit_pending, _) when r < 4 -> round (r + 1)
      | _ -> false
  in
  round 1

(* The aggregate over every server's [Q] reply, and each server's count of
   accepted submissions. *)
let collect c =
  let acc = Array.make afe.A.trunc_len F.zero in
  Array.iteri
    (fun k _ ->
      let reply = call c k (NetT.tagged 'Q' Bytes.empty) in
      let body = Bytes.sub reply 1 (Bytes.length reply - 1) in
      match Wire.vector_of_bytes_opt body with
      | Some v -> Array.iteri (fun j x -> acc.(j) <- F.add acc.(j) x) v
      | None -> Alcotest.fail "bad accumulator payload")
    c.nodes;
  let accepted =
    Array.map (fun n -> (Net.Node.server n).Sv.accepted) c.nodes
  in
  (acc, Array.to_list accepted)

(* Sealed once, so every run of a test submits byte-identical packets.
   [cheat] corrupts one client's encoding, which the SNIP rejects. The
   client proves over [circuit] as given. *)
let packets ?cheat ?(circuit = cfg.Net.circuit) values =
  List.mapi
    (fun i x ->
      let enc = afe.A.encode ~rng x in
      if Some i = cheat then enc.(0) <- F.of_int 999;
      ( i,
        Net.Client.submit ~rng ~mode:(Net.Client.Robust_snip circuit)
          ~num_servers ~client_id:i ~master:cfg.Net.master enc ))
    values

let run ?fault ?cx packets =
  let c = cluster ?fault ?cx () in
  let outcomes =
    List.map (fun (client_id, pk) -> submit c ~client_id pk) packets
  in
  let agg, accepted = collect c in
  let n = List.length (List.filter Fun.id outcomes) in
  (c, outcomes, Prio_bigint.Bigint.to_string (afe.A.decode ~n agg), accepted)

(* The packet set of the TCP suite's "sum end-to-end", through three
   in-process nodes: the same aggregate, 34. *)
let test_sum_end_to_end () =
  let _, outcomes, total, accepted = run (packets [ 3; 7; 15; 0; 9 ]) in
  Alcotest.(check (list bool)) "all accepted" [ true; true; true; true; true ]
    outcomes;
  Alcotest.(check string) "aggregate" "34" total;
  Alcotest.(check (list int)) "accepted per server" [ 5; 5; 5 ] accepted

(* Every node, every one of its journal appends in a fault-free run,
   crashed just before and just after the append: the resubmitting client
   must end with the fault-free aggregate and accept count — nothing lost,
   nothing counted twice. *)
let test_crash_points () =
  let stream = packets ~cheat:4 [ 3; 7; 15; 0; 9; 12 ] in
  let clean, want_outcomes, want_total, want_accepted = run stream in
  Alcotest.(check string) "fault-free aggregate" "37" want_total;
  Alcotest.(check (list int)) "fault-free accepted" [ 5; 5; 5 ] want_accepted;
  (* one decision per submission on every node: 36 crash points *)
  Alcotest.(check (list int)) "fault-free journal appends" [ 6; 6; 6 ]
    (Array.to_list clean.appends);
  Array.iteri
    (fun node appends ->
      for append = 1 to appends do
        List.iter
          (fun after ->
            let fault = { node; append; after } in
            let where =
              Printf.sprintf "node %d, %s append %d" node
                (if after then "after" else "before")
                append
            in
            let c, outcomes, total, accepted = run ~fault stream in
            Alcotest.(check int) (where ^ ": crashed") 1 c.crashes;
            Alcotest.(check (list bool)) (where ^ ": outcomes") want_outcomes
              outcomes;
            Alcotest.(check string) (where ^ ": aggregate") want_total total;
            Alcotest.(check (list int)) (where ^ ": accepted") want_accepted
              accepted)
          [ false; true ]
      done)
    clean.appends

(* A config holding a raw, unoptimized circuit: the builder's output
   asserted twice, so it has twice the mul gates and a longer proof. The
   context deploys it as given, and a client proving over the same raw
   circuit gets the verdicts and aggregate of the optimized deployment. *)
let test_raw_circuit_config () =
  let raw = C.union afe.A.raw_circuit afe.A.raw_circuit in
  Alcotest.(check bool) "raw circuit has more mul gates" true
    (C.num_mul_gates raw > C.num_mul_gates afe.A.circuit);
  let values = [ 3; 7; 15; 0; 9; 12 ] in
  let _, want_outcomes, want_total, want_accepted =
    run (packets ~cheat:4 values)
  in
  let _, outcomes, total, accepted =
    run
      ~cx:(Net.Node.context { cfg with Net.circuit = raw })
      (packets ~cheat:4 ~circuit:raw values)
  in
  Alcotest.(check (list bool)) "verdicts" want_outcomes outcomes;
  Alcotest.(check string) "aggregate" want_total total;
  Alcotest.(check (list int)) "accepted per server" want_accepted accepted

(* The cheater stream with every [V] in flight at once: all six leader
   rounds interleave, a seeded choice of link at every step, each link's
   frames in order. A retried [V] halfway through client 2's round joins
   it. Verdicts, aggregate and the frames the leader posted are the
   serial run's. *)
let test_interleaved_rounds () =
  let stream = packets ~cheat:4 [ 3; 7; 15; 0; 9; 12 ] in
  let serial, want_outcomes, want_total, want_accepted = run stream in
  let c = cluster () in
  List.iter
    (fun (client_id, (pk : Net.Client.packets)) ->
      Array.iteri
        (fun k sealed ->
          Alcotest.(check char) "upload acked" 'K'
            (Bytes.get (call c k (frame ~client_id 'P' sealed)) 0))
        pk.Net.Client.sealed)
    stream;
  let answers = Array.make (List.length stream) [] in
  let verify client_id =
    deliver c 0 (frame ~client_id 'V' Bytes.empty) (fun reply ->
        answers.(client_id) <- Bytes.get reply 0 :: answers.(client_id))
  in
  List.iter (fun (client_id, _) -> verify client_id) stream;
  let sched = Rng.of_string_seed "interleave" in
  (* a round takes 12 steps, so client 2's is still in flight at step 5 *)
  for _ = 1 to 5 do
    let steps = ready c in
    step c (List.nth steps (Rng.int_below sched (List.length steps)))
  done;
  verify 2;
  pump ~sched c;
  let tags = List.map fst (List.rev c.posted) in
  Alcotest.(check (list char)) "six rounds open before the first commit"
    [ 'o'; 'o'; 'o'; 'o'; 'o'; 'o'; 'o'; 'o'; 'o'; 'o'; 'o'; 'o' ]
    (List.filteri (fun i _ -> i < 12) tags);
  Alcotest.(check (list (list char))) "verdicts, twice for client 2"
    (List.mapi
       (fun i ok ->
         let verdict = if ok then 'K' else 'R' in
         if i = 2 then [ verdict; verdict ] else [ verdict ])
       want_outcomes)
    (Array.to_list answers);
  Alcotest.(check int) "no second round for the retried V"
    (List.length serial.posted) (List.length c.posted);
  let agg, accepted = collect c in
  Alcotest.(check string) "aggregate" want_total
    (Prio_bigint.Bigint.to_string
       (afe.A.decode ~n:(List.length (List.filter Fun.id want_outcomes)) agg));
  Alcotest.(check (list int)) "accepted per server" want_accepted accepted

(* [O], [S] and [c] are replies a follower's link carries. From a client
   connection they are refused and the connection closed, as any unknown
   tag: a forged reply moves no round and changes no verdict. *)
let test_client_sent_replies () =
  let c = cluster () in
  let client_id, pk = List.hd (packets [ 11 ]) in
  Array.iteri
    (fun k sealed -> ignore (call c k (frame ~client_id 'P' sealed)))
    pk.Net.Client.sealed;
  let answer = ref None in
  deliver c 0 (frame ~client_id 'V' Bytes.empty) (fun r -> answer := Some r);
  (* the round waits on both followers' openings *)
  let zero_pair = Bytes.cat (F.to_bytes F.zero) (F.to_bytes F.zero) in
  List.iter
    (fun tag ->
      let refused = ref None in
      let keep =
        Net.Node.handle c.nodes.(0)
          (Net.Node.Client (fun r -> refused := Some r))
          (NetT.tagged tag zero_pair)
      in
      Alcotest.(check bool) (Printf.sprintf "%C closes" tag) true (keep = `Close);
      match Option.bind !refused NetT.parse_error_frame with
      | Some (NetT.Unknown_tag, _) -> ()
      | _ -> Alcotest.failf "%C: expected E/unknown-tag" tag)
    [ 'O'; 'S'; 'c' ];
  Alcotest.(check bool) "round still waiting" true (Option.is_none !answer);
  pump c;
  Alcotest.(check (option char)) "verdict" (Some 'K')
    (Option.map (fun r -> Bytes.get r 0) !answer);
  let agg, accepted = collect c in
  Alcotest.(check string) "aggregate" "11"
    (Prio_bigint.Bigint.to_string (afe.A.decode ~n:1 agg));
  Alcotest.(check (list int)) "accepted per server" [ 1; 1; 1 ] accepted

let () =
  Alcotest.run "node"
    [
      ( "in-process cluster",
        [
          Alcotest.test_case "sum end-to-end" `Quick test_sum_end_to_end;
          Alcotest.test_case "crash at every journal append" `Quick
            test_crash_points;
          Alcotest.test_case "raw circuit in the config" `Quick
            test_raw_circuit_config;
          Alcotest.test_case "interleaved leader rounds" `Quick
            test_interleaved_rounds;
          Alcotest.test_case "client-sent replies move no round" `Quick
            test_client_sent_replies;
        ] );
    ]

(* The benchmark's own arithmetic, kept free of I/O so test_arith.ml can
   pin it: nearest-rank percentiles, run-set quartiles, open-loop
   schedule accounting, the self-time ledger over merged cross-process
   traces, and counter deltas between metric scrapes. *)

module Trace = Core.Prio.Obs_trace

(* ------------------------------ percentiles ---------------------------- *)

(* 1-based nearest rank of the [pct]-th percentile among [n] samples:
   the smallest rank r with r/n >= pct/100. Integer arithmetic, so p99 of
   1000 samples is rank 990 exactly (no float rounding up to 991). *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

let percentile ~pct sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Arith.percentile: no samples";
  sorted.(min n (rank ~pct n) - 1)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile ~pct:50 (sorted_of_list xs)

(* First quartile, median and third quartile of a run set, as Python's
   [statistics.quantiles(xs, n=4)] gives them (the "exclusive" method:
   linear interpolation at rank (n+1)q), by which run-to-run spread is
   judged against the regression bounds. *)
let quartiles xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Arith.quartiles: fewer than two samples";
  let q j =
    let m = (n + 1) * j in
    let k = max 1 (min (n - 1) (m / 4)) in
    let frac = float_of_int (m - (k * 4)) /. 4. in
    a.(k - 1) +. ((a.(k) -. a.(k - 1)) *. frac)
  in
  (q 1, q 2, q 3)

(* Quartile distance as a share of the median. *)
let iqr_share xs =
  let q1, med, q3 = quartiles xs in
  (q3 -. q1) /. med

(* The latency tail: the highest of p99/p95/p90 that still has at least
   ten samples above its rank, so the reported tail rests on enough
   observations to repeat. [None] when even p90 does not. *)
let tail sorted =
  let n = Array.length sorted in
  List.find_map
    (fun pct ->
      if n - rank ~pct n >= 10 then Some (pct, percentile ~pct sorted) else None)
    [ 99; 95; 90 ]

(* ------------------------- open-loop accounting ------------------------ *)

(* One open-loop submission: when the schedule said to send it, when the
   generator actually sent it, and when its verdict came back. *)
type timing = { due : float; start : float; finish : float }

(* Latency counts from the due time, so a stall that delays later
   submissions is charged to each of them (no coordinated omission). *)
let latency t = t.finish -. t.due
let lag t = Float.max 0. (t.start -. t.due)

(* Most submissions that were due but not yet sent at any one instant.
   At equal timestamps a send is counted before a due, so a generator
   exactly on time shows a backlog of 0. *)
let backlog_max timings =
  let events =
    List.concat_map (fun t -> [ (t.due, 1); (t.start, -1) ]) timings
    |> List.sort (fun (a, da) (b, db) ->
           match Float.compare a b with 0 -> compare da db | c -> c)
  in
  let _, best =
    List.fold_left
      (fun (cur, best) (_, d) ->
        let cur = cur + d in
        (cur, max best cur))
      (0, 0) events
  in
  best

(* ---------------------------- self-time ledger ------------------------- *)

let span_end (m : Trace.merged) = m.Trace.m_start +. m.Trace.m_duration

(* Length of the union of intervals clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* One submission's share of a merged trace: its wall time (the root
   span's duration) and the self time of every span inside it, summed
   by span name. *)
type submission = { wall : float; self_by_name : (string * float) list }

(* Charge one submission's wall time (root [r]'s duration) to the self
   time of the spans in [members]: a span's time on the blocking path
   minus the part its children cover, children from other processes
   included. Three corrections make the self times of a submission add
   up to its wall time instead of overlapping:
   - a span is clipped to its parent's interval (a server keeps its span
     open after it has sent the reply the parent waited for);
   - a span whose parent is in another process is charged under the
     innermost span of that process open around it (a server's admit
     span names the client's upload span, but the client was inside the
     RPC it made for that upload);
   - a span whose parent is not in the submission (a server-side root,
     such as a follower's snapshot write outside any frame span) is
     charged under the deepest span that contains it in time. *)
let submission_ledger (r : Trace.merged) members =
  let id m = m.Trace.m_id in
  let by_id = Hashtbl.create 32 and kids = Hashtbl.create 32 in
  List.iter (fun m -> Hashtbl.replace by_id (id m) m) members;
  List.iter
    (fun m ->
      Option.iter
        (fun p -> Hashtbl.replace kids p (m :: Option.value ~default:[] (Hashtbl.find_opt kids p)))
        m.Trace.m_parent)
    members;
  let clip (a, b) (lo, hi) = (Float.max a lo, Float.max (Float.max a lo) (Float.min b hi)) in
  let inside (a, b) (lo, hi) = lo <= a && b <= hi in
  (* resolved (parent id, clipped interval, depth) of every linked span *)
  let resolved = Hashtbl.create 32 in
  let rec resolve m =
    match Hashtbl.find_opt resolved (id m) with
    | Some x -> x
    | None ->
      let x =
        if m == r then (None, (m.Trace.m_start, span_end m), 0)
        else
          let p0 = Hashtbl.find by_id (Option.get m.Trace.m_parent) in
          let _, piv, pdepth = resolve p0 in
          let iv = clip (m.Trace.m_start, span_end m) piv in
          let rec descend p depth =
            let local =
              List.find_opt
                (fun c ->
                  c != m && c.Trace.m_origin = p.Trace.m_origin
                  && (let _, civ, _ = resolve c in inside iv civ))
                (Option.value ~default:[] (Hashtbl.find_opt kids (id p)))
            in
            match local with Some c -> descend c (depth + 1) | None -> (p, depth)
          in
          let p, depth =
            if m.Trace.m_origin = p0.Trace.m_origin then (p0, pdepth)
            else descend p0 pdepth
          in
          (Some (id p), iv, depth + 1)
      in
      Hashtbl.replace resolved (id m) x;
      x
  in
  let linked m =
    m == r || match m.Trace.m_parent with Some p -> Hashtbl.mem by_id p | None -> false
  in
  let linked_spans = List.filter linked members in
  List.iter (fun m -> ignore (resolve m)) linked_spans;
  let placed =
    List.map
      (fun m ->
        if linked m then
          let p, iv, _ = resolve m in
          (m, p, iv)
        else
          let iv = clip (m.Trace.m_start, span_end m) (r.Trace.m_start, span_end r) in
          let deepest =
            List.fold_left
              (fun best c ->
                let _, civ, d = resolve c in
                match best with
                | Some (_, bd) when bd >= d -> best
                | _ -> if inside iv civ then Some (c, d) else best)
              None linked_spans
          in
          (m, Option.map (fun (c, _) -> id c) deepest, iv))
      members
  in
  let child_ivs = Hashtbl.create 32 in
  List.iter
    (fun (_, p, iv) ->
      Option.iter
        (fun p -> Hashtbl.replace child_ivs p (iv :: Option.value ~default:[] (Hashtbl.find_opt child_ivs p)))
        p)
    placed;
  let self = Hashtbl.create 16 in
  List.iter
    (fun (m, _, (a, b)) ->
      let covered = covered ~lo:a ~hi:b (Option.value ~default:[] (Hashtbl.find_opt child_ivs (id m))) in
      Hashtbl.replace self m.Trace.m_name
        (b -. a -. covered +. Option.value ~default:0. (Hashtbl.find_opt self m.Trace.m_name)))
    placed;
  { wall = r.Trace.m_duration; self_by_name = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] }

(* Split a merged trace into submissions — the [root]-named spans, which
   must not overlap (one session) — and ledger each. A span belongs to
   the submission whose root interval holds its start. *)
let ledger ~root (merged : Trace.merged list) : submission list =
  let spans = List.filter (fun m -> m.Trace.m_kind = Trace.Span) merged in
  let roots =
    List.filter (fun m -> m.Trace.m_name = root) spans
    |> List.sort (fun a b -> Float.compare a.Trace.m_start b.Trace.m_start)
    |> Array.of_list
  in
  let nroots = Array.length roots in
  let groups = Array.make nroots [] in
  (* last root starting at or before [t], if [t] falls inside it *)
  let owner t =
    let rec search lo hi =
      if lo >= hi then lo - 1
      else
        let mid = (lo + hi) / 2 in
        if roots.(mid).Trace.m_start <= t then search (mid + 1) hi else search lo mid
    in
    let i = search 0 nroots in
    if i >= 0 && t <= span_end roots.(i) then Some i else None
  in
  List.iter
    (fun m ->
      if m.Trace.m_name <> root then
        Option.iter (fun i -> groups.(i) <- m :: groups.(i)) (owner m.Trace.m_start))
    spans;
  Array.to_list (Array.mapi (fun i r -> submission_ledger r (r :: groups.(i))) roots)

(* Median self time per named layer across submissions (0 for a layer a
   submission never entered), and the median of what those layers leave
   unexplained of each submission's wall time. *)
let layer_medians ~names (subs : submission list) =
  let self_of s name =
    Option.value ~default:0. (List.assoc_opt name s.self_by_name)
  in
  let per_layer =
    List.map (fun name -> (name, median (List.map (fun s -> self_of s name) subs))) names
  in
  let unattributed =
    median
      (List.map
         (fun s ->
           s.wall -. List.fold_left (fun acc n -> acc +. self_of s n) 0. names)
         subs)
  in
  (per_layer, unattributed)

(* --------------------------------- JSON -------------------------------- *)

(* Just enough JSON to read the servers' metric scrapes and result lines. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail what = raise (Bad_json (Printf.sprintf "%s at %d" what !pos)) in
  let rec ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false)
    then (incr pos; ws ())
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        if !pos + 1 >= n then fail "bad escape";
        let c = s.[!pos + 1] in
        pos := !pos + 2;
        (match c with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_char b (if code < 128 then Char.chr code else '?')
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f when !pos > start -> Num f
      | _ -> fail "bad value")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None
let num = function Some (Num f) -> Some f | _ -> None

(* ----------------------------- scrape deltas --------------------------- *)

(* One [q]-frame scrape of a server's registry: the parsed JSON report
   and the length of the text, which the server sends back in an [m]
   frame only after rendering it. *)
type scrape = { report : json; text_len : int }

let scrape_of_text text = { report = parse_json text; text_len = String.length text }
let counter s name = Option.value ~default:0. (num (member name s.report))

(* What answering scrape [s] itself added to a server's transmit
   counters: one [m] frame of 4 length bytes + tag + text, counted by
   the next scrape of the same process. *)
let scrape_reply_cost s name =
  match name with
  | "prio_net_tx_bytes_total" -> float_of_int (5 + s.text_len)
  | "prio_net_tx_frames_total" -> 1.
  | _ -> 0.

(* A counter's growth over one server process's life between two
   scrapes, excluding the first scrape's own reply. [since = None] means
   the process started after the window opened (a restart), whose
   registry began at zero. *)
let counter_delta ~since ~until name =
  counter until name
  -.
  match since with
  | None -> 0.
  | Some s -> counter s name +. scrape_reply_cost s name

(* Sum of [counter_delta] over every segment — one per server process
   that lived in the window — divided by [per]. *)
let per_unit ~segments ~per name =
  List.fold_left
    (fun acc (since, until) -> acc +. counter_delta ~since ~until name)
    0. segments
  /. float_of_int per

(* Histogram fields of one scrape ([None] when absent or empty). *)
let histogram_field s name field = num (Option.bind (member name s.report) (member field))

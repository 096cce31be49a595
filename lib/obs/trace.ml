(** Nested spans and instant events with a ring-buffer recorder.

    A {!recorder} is installed globally ({!install}); until then every
    {!with_span}/{!event} call is a near-free passthrough (one ref read).
    Spans are recorded at start (so parents precede children in the
    ring) and their duration is patched in place when the span closes;
    the ring keeps the most recent [capacity] entries, evicting the
    oldest. Exporters: {!to_jsonl} (one JSON object per line, machine
    diffable) and {!tree} (indented human view).

    Like {!Metrics}, the recorder reads time only through {!Clock}, so a
    fixed clock plus seeded fault injection yields byte-identical trace
    output across runs.

    Domain safety: the ring, counters and span mutations are guarded by
    one mutex, while the open-span stack — which follows each domain's
    call stack and never crosses domains — lives in domain-local storage
    keyed to the installed recorder. Spans recorded concurrently from
    several domains interleave in the ring in lock order, each nested
    under its own domain's innermost open span. *)

type kind = Span | Event

type span = {
  id : int;
  parent : int option;
  name : string;
  kind : kind;
  start : float;
  trace : string;  (** trace id this span belongs to (root spans mint one) *)
  remote : string option;  (** cross-process parent reference, if any *)
  mutable duration : float;
  mutable attrs : (string * string) list;
}

type recorder = {
  clock : Clock.t;
  capacity : int;
  origin : string;  (** process label namespacing span references *)
  ring : span option array;
  mutable total : int;  (** spans ever started, including evicted ones *)
  mutable next_id : int;
  lock : Mutex.t;  (** guards ring, total, next_id and span mutations *)
}

let create ?(clock = Clock.system) ?(capacity = 4096) ?(origin = "main") () =
  if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity must be positive";
  { clock; capacity; origin; ring = Array.make capacity None; total = 0;
    next_id = 0; lock = Mutex.create () }

let origin r = r.origin

(* Globally-referenceable span identity: "<origin>#<local id>". Two
   recorders with distinct origins (one per OS process in a deployment)
   never collide, so cross-process parent links survive {!merge}. *)
let sref r id = r.origin ^ "#" ^ string_of_int id

(* Atomic, not ref: with_span/event read this from worker
   domains while the main domain installs/uninstalls recorders around
   runs (the PR 6 trace-ring race). *)
let current : recorder option Atomic.t = Atomic.make None
let install r = Atomic.set current (Some r)
let uninstall () = Atomic.set current None
let installed () = Atomic.get current

(* Each domain keeps its own open-span stack: span nesting follows the
   call stack, which never crosses a domain boundary. The cell is keyed
   (physically) to the recorder it was built against, so installing a
   fresh recorder can't leak another run's parents into new spans. *)
let stack_key : (recorder option * span list) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (None, []))

let my_stack r =
  let cell = Domain.DLS.get stack_key in
  (match !cell with
  | Some r', _ when r' == r -> ()
  | _ -> cell := (Some r, []));
  cell

let locked r f =
  Mutex.lock r.lock;
  match f () with
  | v ->
    Mutex.unlock r.lock;
    v
  | exception e ->
    Mutex.unlock r.lock;
    raise e

let recorded r = locked r (fun () -> min r.total r.capacity)
let total r = locked r (fun () -> r.total)

(* [trace]: [None] mints a fresh trace id — the span's own global
   reference — making the span a trace root; [Some t] joins trace [t]. *)
let fresh r ~kind ~parent ~trace ~remote ?(attrs = []) name =
  locked r (fun () ->
      let id = r.next_id in
      r.next_id <- id + 1;
      let trace = match trace with Some t -> t | None -> sref r id in
      let sp =
        { id; parent; name; kind; start = Clock.now r.clock; trace; remote;
          duration = 0.; attrs }
      in
      r.ring.(r.total mod r.capacity) <- Some sp;
      r.total <- r.total + 1;
      sp)

let parent_of stack =
  match snd !stack with [] -> None | sp :: _ -> Some sp.id

let trace_of stack =
  match snd !stack with [] -> None | sp :: _ -> Some sp.trace

(* --------------------------- trace context ----------------------------- *)

(** Wire-portable reference to an open span in this process: attach it to
    an outgoing frame and the receiving process records its handling
    spans as remote children ({!with_span_ctx}), so a client submission
    and every server-side phase it triggers share one trace. *)
type context = { ctx_trace : string; ctx_parent : string }

let context () =
  match Atomic.get current with
  | None -> None
  | Some r -> (
    match snd !(my_stack r) with
    | [] -> None
    | sp :: _ -> Some { ctx_trace = sp.trace; ctx_parent = sref r sp.id })

(* References are origin-prefixed ids with no whitespace, so a single
   space separates the two fields unambiguously. *)
let context_to_string c = c.ctx_trace ^ " " ^ c.ctx_parent

let context_of_string s =
  match String.index_opt s ' ' with
  | Some i when i > 0 && i < String.length s - 1 ->
    let trace = String.sub s 0 i in
    let parent = String.sub s (i + 1) (String.length s - i - 1) in
    if String.contains parent ' ' then None
    else Some { ctx_trace = trace; ctx_parent = parent }
  | _ -> None

let start_span ?ctx ?attrs r stack name =
  let parent = parent_of stack in
  let trace, remote =
    match ctx with
    | Some c -> (Some c.ctx_trace, Some c.ctx_parent)
    | None -> (trace_of stack, None)
  in
  fresh r ~kind:Span ~parent ~trace ~remote ?attrs name

let with_span_gen ?ctx ?attrs name f =
  match Atomic.get current with
  | None -> f ()
  | Some r ->
    let stack = my_stack r in
    let sp = start_span ?ctx ?attrs r stack name in
    stack := (Some r, sp :: snd !stack);
    Fun.protect
      ~finally:(fun () ->
        locked r (fun () -> sp.duration <- Clock.now r.clock -. sp.start);
        (* tolerate a child left open by an exception: drop down to sp *)
        let rec unwind = function
          | top :: rest when top == sp -> rest
          | _ :: rest -> unwind rest
          | [] -> []
        in
        stack := (Some r, unwind (snd !stack)))
      f

let with_span ?attrs name f = with_span_gen ?attrs name f

let with_span_ctx ?ctx ?attrs name f = with_span_gen ?ctx ?attrs name f

let event ?attrs name =
  match Atomic.get current with
  | None -> ()
  | Some r ->
    let stack = my_stack r in
    ignore
      (fresh r ~kind:Event ~parent:(parent_of stack) ~trace:(trace_of stack)
         ~remote:None ?attrs name)

(* ------------------------------- exporters ----------------------------- *)

(** Recorded spans, oldest first (evicted entries are gone); the list is
    snapshotted under the recorder lock, so exporting while other domains
    record sees a consistent ring. *)
let spans r =
  locked r (fun () ->
      let n = min r.total r.capacity in
      let first = r.total - n in
      List.init n (fun i ->
          match r.ring.((first + i) mod r.capacity) with
          | Some sp -> sp
          | None -> assert false (* slots below [total] are always filled *)))

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* shortest representation that round-trips: epoch-scale starts keep
       their microseconds without printing 17 digits for everything *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* One JSONL record of a dump. *)
let span_to_json ~origin sp =
  let buf = Buffer.create 128 in
  let str s = "\"" ^ Json.escape s ^ "\"" in
  Printf.bprintf buf "{\"id\":%d,\"parent\":%s,\"origin\":%s,\"trace\":%s"
    sp.id
    (match sp.parent with None -> "null" | Some p -> string_of_int p)
    (str origin) (str sp.trace);
  Option.iter (fun r -> Printf.bprintf buf ",\"remote\":%s" (str r)) sp.remote;
  Printf.bprintf buf ",\"kind\":%s,\"name\":%s,\"start\":%s"
    (match sp.kind with Span -> "\"span\"" | Event -> "\"event\"")
    (str sp.name) (float_lit sp.start);
  if sp.kind = Span then
    Printf.bprintf buf ",\"duration\":%s" (float_lit sp.duration);
  if sp.attrs <> [] then begin
    Buffer.add_string buf ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Printf.bprintf buf "%s:%s" (str k) (str v))
      sp.attrs;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_jsonl r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun sp ->
      Buffer.add_string buf (span_to_json ~origin:r.origin sp);
      Buffer.add_char buf '\n')
    (spans r);
  Buffer.contents buf

(** Indented parent/child view. Spans whose parent was evicted from the
    ring (or never existed) render at the root. *)
let tree r =
  let all = spans r in
  let present = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace present sp.id ()) all;
  let children = Hashtbl.create 64 in
  let roots =
    List.filter
      (fun sp ->
        match sp.parent with
        | Some p when Hashtbl.mem present p ->
          Hashtbl.replace children p
            (sp :: (try Hashtbl.find children p with Not_found -> []));
          false
        | _ -> true)
      all
  in
  let buf = Buffer.create 1024 in
  let attr_str sp =
    if sp.attrs = [] then ""
    else
      " ["
      ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) sp.attrs)
      ^ "]"
  in
  let rec render depth sp =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    (match sp.kind with
    | Span ->
      Buffer.add_string buf
        (Printf.sprintf "%s (%.6fs)%s\n" sp.name sp.duration (attr_str sp))
    | Event ->
      Buffer.add_string buf (Printf.sprintf "* %s%s\n" sp.name (attr_str sp)));
    List.iter (render (depth + 1))
      (List.rev (try Hashtbl.find children sp.id with Not_found -> []))
  in
  List.iter (render 0) roots;
  Buffer.contents buf

(* --------------------------- cross-process merge ----------------------- *)

type merged = {
  m_id : string;  (** origin-qualified reference, ["server0#3"] *)
  m_parent : string option;  (** resolved parent reference, local or remote *)
  m_origin : string;
  m_trace : string;
  m_kind : kind;
  m_name : string;
  m_start : float;
  m_duration : float;
  m_attrs : (string * string) list;
}

(* Parse one JSONL doc into merged records (parents unresolved yet);
   [fallback] labels docs whose lines carry no origin. Unparseable lines
   are skipped: a torn last line from a killed process must not poison
   the rest of the dump. *)
let parse_doc ~fallback doc =
  let parse_line line =
    match Json.parse line with
    | exception Json.Error _ -> None
    | j ->
      let str k =
        match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
      in
      let num k =
        match Json.member k j with Some (Json.Num f) -> Some f | _ -> None
      in
      (match (num "id", str "name") with
      | Some id, Some name ->
        let origin = Option.value (str "origin") ~default:fallback in
        let attrs =
          match Json.member "attrs" j with
          | Some (Json.Obj fields) ->
            List.filter_map
              (fun (k, v) ->
                match v with Json.Str s -> Some (k, s) | _ -> None)
              fields
          | _ -> []
        in
        Some
          ( Option.map int_of_float (num "parent"),
            str "remote",
            {
              m_id = origin ^ "#" ^ string_of_int (int_of_float id);
              m_parent = None;
              m_origin = origin;
              m_trace = Option.value (str "trace") ~default:"";
              m_kind = (if str "kind" = Some "event" then Event else Span);
              m_name = name;
              m_start = Option.value (num "start") ~default:0.;
              m_duration = Option.value (num "duration") ~default:0.;
              m_attrs = attrs;
            } )
      | _ -> None)
  in
  String.split_on_char '\n' doc
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map parse_line

(** Join per-process JSONL dumps into one causally-ordered list: local
    parent ids are qualified by their process origin, cross-process
    [remote] references stitch the per-process trees together (a span
    with both keeps the local parent — deeper nesting), and the result
    is topologically ordered (parents before children, siblings by start
    time then id, so a fixed clock gives a deterministic merge). *)
let merge docs =
  let raw =
    List.concat
      (List.mapi (fun i doc -> parse_doc ~fallback:("p" ^ string_of_int i) doc)
         docs)
  in
  let present = Hashtbl.create 256 in
  List.iter (fun (_, _, m) -> Hashtbl.replace present m.m_id ()) raw;
  let resolved =
    List.map
      (fun (local, remote, m) ->
        let local_ref =
          match local with
          | Some p ->
            let r = m.m_origin ^ "#" ^ string_of_int p in
            if Hashtbl.mem present r then Some r else None
          | None -> None
        in
        let remote_ref =
          match remote with
          | Some r when Hashtbl.mem present r -> Some r
          | _ -> None
        in
        let parent =
          match local_ref with Some _ -> local_ref | None -> remote_ref
        in
        { m with m_parent = parent })
      raw
  in
  (* Topological emit: roots (and orphans) first, children under their
     parents, siblings ordered by (start, id). *)
  let children = Hashtbl.create 256 in
  let roots = ref [] in
  List.iter
    (fun m ->
      match m.m_parent with
      | Some p ->
        Hashtbl.replace children p
          (m :: (try Hashtbl.find children p with Not_found -> []))
      | None -> roots := m :: !roots)
    resolved;
  let order a b =
    match Float.compare a.m_start b.m_start with
    | 0 -> String.compare a.m_id b.m_id
    | c -> c
  in
  let buf = ref [] in
  let rec emit m =
    buf := m :: !buf;
    List.iter emit
      (List.sort order (try Hashtbl.find children m.m_id with Not_found -> []))
  in
  List.iter emit (List.sort order (List.rev !roots));
  List.rev !buf

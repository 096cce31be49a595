(** Global metrics registry: named counters, gauges, and log-scale
    histograms.

    Design constraints (ISSUE 4 tentpole):
    - O(1) hot-path recording: counters are a single [Atomic] RMW,
      histogram observation is one [frexp] plus two array writes.
    - A global no-op mode ({!disable}) so instrumented hot paths cost a
      single atomic load and no allocation when observability is off.
    - Registration is idempotent: [counter name] returns the existing
      counter when one is already registered under [name], so functor
      instantiations and re-instantiated pipelines share channels.

    Thread-safety: every metric kind is domain-safe. Counters are a
    single [Atomic] RMW; gauges are an atomic last-writer-wins cell;
    histogram bucket/count cells are atomic and the float accumulators
    (sum, min, max) are updated through CAS retry loops, so no sample is
    ever lost under concurrent domains ([Parallel.map] callers record
    from many domains at once). *)

(* ------------------------------ no-op mode ----------------------------- *)

let enabled = Atomic.make true
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

(* ------------------------------- buckets ------------------------------- *)

(* Power-of-two log-scale buckets shared by every histogram: bucket [i]
   covers [2^(min_exp+i), 2^(min_exp+i+1)), with the first bucket also
   absorbing zero/negative samples and the last bucket unbounded above.
   The range 2^-30 .. 2^34 spans sub-nanosecond latencies through
   multi-gigabyte byte counts. *)

let num_buckets = 64
let min_exp = -30

let bucket_of v =
  if v <= 0. then 0
  else begin
    let _, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1), so 2^(e-1) <= v < 2^e *)
    let i = e - 1 - min_exp in
    if i < 0 then 0 else if i >= num_buckets then num_buckets - 1 else i
  end

let bucket_lower i =
  if i <= 0 then 0. else Float.ldexp 1. (min_exp + i)

let bucket_upper i =
  if i >= num_buckets - 1 then infinity else Float.ldexp 1. (min_exp + i + 1)

(* ------------------------------- metrics ------------------------------- *)

type counter = { cell : int Atomic.t }

type gauge = { g_cell : float Atomic.t }

type histogram = {
  buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
}

(* Lock-free read-modify-write on a boxed-float atomic: CAS compares the
   box by physical equality, and [Atomic.get] returns the exact box a
   successful [set] installed, so the retry loop is sound. *)
let rec update_float cell f =
  let old = Atomic.get cell in
  let next = f old in
  if not (Atomic.compare_and_set cell old next) then update_float cell f

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register name wrong mk unpack =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match unpack m with
        | Some x -> x
        | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s is already registered as a %s"
               name wrong))
      | None ->
        let x = mk () in
        x)

let counter name =
  register name "non-counter"
    (fun () ->
      let c = { cell = Atomic.make 0 } in
      Hashtbl.replace registry name (Counter c);
      c)
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name "non-gauge"
    (fun () ->
      let g = { g_cell = Atomic.make 0. } in
      Hashtbl.replace registry name (Gauge g);
      g)
    (function Gauge g -> Some g | _ -> None)

let histogram name =
  register name "non-histogram"
    (fun () ->
      let h =
        { buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0; h_sum = Atomic.make 0.;
          h_min = Atomic.make infinity; h_max = Atomic.make neg_infinity }
      in
      Hashtbl.replace registry name (Histogram h);
      h)
    (function Histogram h -> Some h | _ -> None)

(* ------------------------------ recording ------------------------------ *)

let add c n = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let value c = Atomic.get c.cell

let set g v = if Atomic.get enabled then Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

let observe h v =
  if Atomic.get enabled then begin
    let i = bucket_of v in
    ignore (Atomic.fetch_and_add h.buckets.(i) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    update_float h.h_sum (fun s -> s +. v);
    update_float h.h_min (fun m -> if v < m then v else m);
    update_float h.h_max (fun m -> if v > m then v else m)
  end

let observe_int h n = observe h (float_of_int n)

let count h = Atomic.get h.h_count
let sum h = Atomic.get h.h_sum

let mean h =
  let c = Atomic.get h.h_count in
  if c = 0 then 0. else Atomic.get h.h_sum /. float_of_int c

(* -------------------------------- timing ------------------------------- *)

(* Atomic, not ref: [time] reads the clock from worker domains while
   tests swap in manual clocks from the main domain (the PR 5 race). *)
let clock = Atomic.make Clock.system
let set_clock c = Atomic.set clock c
let now () = Clock.now (Atomic.get clock)

let time h f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = Clock.now (Atomic.get clock) in
    Fun.protect
      ~finally:(fun () -> observe h (Clock.now (Atomic.get clock) -. t0))
      f
  end

(* ------------------------------- snapshot ------------------------------ *)

type histogram_view = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;  (** [infinity] when empty *)
  hv_max : float;  (** [neg_infinity] when empty *)
  hv_buckets : (float * int) array;
      (** (inclusive upper bound, samples in bucket) for non-empty
          buckets, in increasing bound order; last bound may be
          [infinity] *)
}

type view =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram_view

let view_of = function
  | Counter c -> Counter_v (Atomic.get c.cell)
  | Gauge g -> Gauge_v (Atomic.get g.g_cell)
  | Histogram h ->
    let bs = ref [] in
    for i = num_buckets - 1 downto 0 do
      let n = Atomic.get h.buckets.(i) in
      if n > 0 then bs := (bucket_upper i, n) :: !bs
    done;
    Histogram_v
      { hv_count = Atomic.get h.h_count; hv_sum = Atomic.get h.h_sum;
        hv_min = Atomic.get h.h_min; hv_max = Atomic.get h.h_max;
        hv_buckets = Array.of_list !bs }

let snapshot () =
  with_lock (fun () ->
      Hashtbl.fold (fun name m acc -> (name, view_of m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Percentile estimate from the log-scale buckets: walk the cumulative
   counts to the bucket the rank lands in, interpolate linearly inside
   it, and clamp to the observed min/max so a near-empty histogram never
   reports a bucket edge far from any actual sample. The relative error
   is bounded by the bucket width (a factor of 2).

   Degenerate views are answered without the walk: a snapshot racing a
   concurrent [observe] can see [hv_count > 0] with the buckets (or the
   min/max cells) not yet updated — walking that view would fall off the
   end and report the sentinel [neg_infinity] max as a "percentile".
   Such partial views get [None] (same as empty); a single-bucket view
   where every sample is the same value gets that value exactly rather
   than an interpolated point below it. *)
let percentile hv q =
  if
    hv.hv_count = 0
    || Array.length hv.hv_buckets = 0
    || not (Float.is_finite hv.hv_min && Float.is_finite hv.hv_max)
  then None
  else if hv.hv_min = hv.hv_max then Some hv.hv_min
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = q *. float_of_int hv.hv_count in
    let clamp v = Float.min hv.hv_max (Float.max hv.hv_min v) in
    let n = Array.length hv.hv_buckets in
    let rec go cum i =
      if i >= n then Some hv.hv_max
      else begin
        let le, c = hv.hv_buckets.(i) in
        let cum' = cum + c in
        if float_of_int cum' >= rank then
          if Float.is_finite le then begin
            let lower = le /. 2. in
            let frac =
              if c = 0 then 1.
              else (rank -. float_of_int cum) /. float_of_int c
            in
            Some (clamp (lower +. ((le -. lower) *. frac)))
          end
          else (* unbounded last bucket: the max is the best estimate *)
            Some hv.hv_max
        else go cum' (i + 1)
      end
    in
    go 0 0
  end

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.cell 0
          | Gauge g -> Atomic.set g.g_cell 0.
          | Histogram h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.h_count 0;
            Atomic.set h.h_sum 0.;
            Atomic.set h.h_min infinity;
            Atomic.set h.h_max neg_infinity)
        registry)

(* Tests for the prio_lint static analyzer.

   Two layers: (a) the tree gate — the linter must be clean on the whole
   repo (modulo the checked-in baseline), so any new violation fails
   `dune runtest` as well as `dune build @lint`; (b) a corpus of known-bad
   and known-good snippets under lint_corpus/ with the exact diagnostics
   pinned, so a rule that goes blind (or trigger-happy) is caught by the
   suite, not by reviewers. *)

module D = Prio_analysis.Diagnostic
module Rules = Prio_analysis.Rules
module Policy = Prio_analysis.Policy
module Driver = Prio_analysis.Driver
module Baseline = Prio_analysis.Baseline
module Callgraph = Prio_analysis.Callgraph

let read_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

(* The corpus and the repo tree are found next to this executable, not
   from the working directory, so the binary passes wherever it runs. *)
let here = Filename.dirname Sys.executable_name
let corpus = Filename.concat here "lint_corpus"
let root = Filename.concat here ".."

(* Lint one corpus file under every AST rule; diagnostics are labelled
   with the bare file name so expectations stay short. *)
let lint file =
  let src = read_file (Filename.concat corpus file) in
  List.map D.to_string
    (Driver.lint_source ~rules:Rules.all_ast_rules ~path:file src)

let check_diags name expected actual =
  Alcotest.(check (list string)) name expected actual

(* Lint corpus files as one program under the cross-file rules. *)
let lint_cross rules files =
  let files =
    List.map
      (fun f -> (f, read_file (Filename.concat corpus f)))
      files
  in
  List.map D.to_string (Driver.lint_sources ~rules ~files)

(* ------------------------------ corpus ------------------------------- *)

let test_ct_compare_positives () =
  check_diags "ct_compare_bad"
    [
      "ct_compare_bad.ml:2:30: [ct-compare] polymorphic comparison (=) on \
       non-literal operands: use a monomorphic or constant-time equality \
       (F.equal, Int.equal, Hmac.verify)";
      "ct_compare_bad.ml:3:30: [ct-compare] polymorphic comparison (<>) on \
       non-literal operands: use a monomorphic or constant-time equality \
       (F.equal, Int.equal, Hmac.verify)";
      "ct_compare_bad.ml:4:14: [ct-compare] polymorphic compare is \
       variable-time: use Int.compare or a field-specific comparison";
      "ct_compare_bad.ml:5:15: [ct-compare] variable-time comparison \
       String.compare: secret-dependent data must use a constant-time or \
       field-specific equality";
      "ct_compare_bad.ml:6:15: [ct-compare] variable-time comparison \
       Bytes.compare: secret-dependent data must use a constant-time or \
       field-specific equality";
      "ct_compare_bad.ml:7:14: [ct-compare] String.equal short-circuits on \
       the first mismatch: use a constant-time comparison for \
       secret-dependent data";
      "ct_compare_bad.ml:8:14: [ct-compare] Bytes.equal short-circuits on \
       the first mismatch: use a constant-time comparison for \
       secret-dependent data";
      "ct_compare_bad.ml:9:15: [ct-compare] polymorphic compare is \
       variable-time: use Int.compare or a field-specific comparison";
      "ct_compare_bad.ml:10:28: [ct-compare] polymorphic comparison (=) on \
       non-literal operands: use a monomorphic or constant-time equality \
       (F.equal, Int.equal, Hmac.verify)";
    ]
    (lint "ct_compare_bad.ml")

let test_ct_compare_negatives () =
  check_diags "ct_compare_ok" [] (lint "ct_compare_ok.ml")

let test_ambient_positives () =
  check_diags "ambient_bad"
    [
      "ambient_bad.ml:2:17: [no-ambient-random] ambient randomness \
       Random.int: every protocol execution must be a pure function of its \
       Rng seed (thread a seeded Prio_crypto.Rng.t)";
      "ambient_bad.ml:3:16: [no-ambient-random] ambient randomness \
       Random.self_init: every protocol execution must be a pure function \
       of its Rng seed (thread a seeded Prio_crypto.Rng.t)";
    ]
    (lint "ambient_bad.ml")

let test_ambient_negatives () =
  check_diags "ambient_ok" [] (lint "ambient_ok.ml")

let test_clock_positives () =
  check_diags "clock_bad"
    [
      "clock_bad.ml:2:13: [no-ambient-clock] ambient clock \
       Unix.gettimeofday: read time through the Obs.Clock or Retry.now \
       seams (or take an instant as a parameter) so runs replay \
       deterministically";
      "clock_bad.ml:3:15: [no-ambient-clock] ambient clock Unix.time: read \
       time through the Obs.Clock or Retry.now seams (or take an instant \
       as a parameter) so runs replay deterministically";
      "clock_bad.ml:4:13: [no-ambient-clock] ambient clock Sys.time: read \
       time through the Obs.Clock or Retry.now seams (or take an instant \
       as a parameter) so runs replay deterministically";
    ]
    (lint "clock_bad.ml")

let test_clock_negatives () =
  check_diags "clock_ok" [] (lint "clock_ok.ml")

let test_error_discipline_positives () =
  check_diags "errors_bad"
    [
      "errors_bad.ml:2:14: [error-discipline] failwith escapes the \
       protocol boundary as Failure: return a structured protocol_error \
       instead";
      "errors_bad.ml:3:69: [error-discipline] raising Not_found across the \
       protocol boundary: return a structured protocol_error \
       (locally-declared exceptions caught before the public API are fine)";
      "errors_bad.ml:4:23: [error-discipline] raising Failure across the \
       protocol boundary: return a structured protocol_error \
       (locally-declared exceptions caught before the public API are fine)";
      "errors_bad.ml:5:24: [error-discipline] raising Unix.Unix_error \
       across the protocol boundary: return a structured protocol_error \
       (locally-declared exceptions caught before the public API are fine)";
    ]
    (lint "errors_bad.ml")

let test_error_discipline_negatives () =
  check_diags "errors_ok" [] (lint "errors_ok.ml")

let test_debug_io_positives () =
  check_diags "io_bad"
    [
      "io_bad.ml:2:14: [no-debug-io] debug I/O Printf.printf in library \
       code: return the data, take a Format.formatter, or log at the \
       binary layer";
      "io_bad.ml:3:15: [no-debug-io] debug I/O print_endline in library \
       code: return the data, take a Format.formatter, or log at the \
       binary layer";
      "io_bad.ml:4:15: [no-debug-io] debug I/O prerr_endline in library \
       code: return the data, take a Format.formatter, or log at the \
       binary layer";
      "io_bad.ml:5:13: [no-debug-io] debug I/O Format.eprintf in library \
       code: return the data, take a Format.formatter, or log at the \
       binary layer";
    ]
    (lint "io_bad.ml")

let test_debug_io_negatives () = check_diags "io_ok" [] (lint "io_ok.ml")

let test_partial_positives () =
  check_diags "partial_bad"
    [
      "partial_bad.ml:2:14: [no-partial-stdlib] List.hd raises on short \
       lists: match explicitly or restructure";
      "partial_bad.ml:3:15: [no-partial-stdlib] List.nth raises on short \
       lists: match explicitly or restructure";
      "partial_bad.ml:4:14: [no-partial-stdlib] Option.get raises on None: \
       match explicitly on the option";
      "partial_bad.ml:5:13: [no-partial-stdlib] Obj.magic defeats the type \
       system entirely";
    ]
    (lint "partial_bad.ml")

let test_partial_negatives () =
  check_diags "partial_ok" [] (lint "partial_ok.ml")

let test_mli_coverage () =
  let flagged files =
    List.map fst (Rules.run_mli_coverage files)
  in
  Alcotest.(check (list string))
    "missing .mli flagged"
    [ "lib/foo/b.ml"; "lib/bar/c.ml" ]
    (flagged
       [ "lib/foo/a.ml"; "lib/foo/a.mli"; "lib/foo/b.ml"; "lib/bar/c.ml" ]);
  Alcotest.(check (list string))
    "covered modules pass" []
    (flagged [ "lib/foo/a.ml"; "lib/foo/a.mli"; "lib/foo/d.mli" ]);
  (* the exemptions are Policy's, not the rule's *)
  Alcotest.(check bool) "policy exempts lib/core" true
    (Policy.severity_of "lib/core/prio.ml" Rules.mli_coverage = None);
  Alcotest.(check bool) "policy demands .mli elsewhere in lib" true
    (Policy.severity_of "lib/field/counting.ml" Rules.mli_coverage
    = Some D.Error)

let test_suppressions () =
  check_diags "suppressed"
    [
      "suppressed.ml:8:15: [error-discipline] failwith escapes the \
       protocol boundary as Failure: return a structured protocol_error \
       instead";
    ]
    (lint "suppressed.ml")

let test_baseline () =
  let b =
    Baseline.parse
      "# comment\nlib/field/field_intf.ml mli-coverage\n\nlib/x.ml \
       ct-compare # trailing\n"
  in
  Alcotest.(check bool) "entry waives" true
    (Baseline.waived b ~file:"lib/field/field_intf.ml" ~rule:"mli-coverage");
  Alcotest.(check bool) "trailing comment stripped" true
    (Baseline.waived b ~file:"lib/x.ml" ~rule:"ct-compare");
  Alcotest.(check bool) "other rule not waived" false
    (Baseline.waived b ~file:"lib/field/field_intf.ml" ~rule:"ct-compare");
  Alcotest.(check bool) "other file not waived" false
    (Baseline.waived b ~file:"lib/field/babybear.ml" ~rule:"mli-coverage")

let test_parse_error () =
  match Driver.lint_source ~rules:Rules.all_ast_rules ~path:"garbage.ml"
      "let let let ("
  with
  | [ d ] -> Alcotest.(check string) "rule" "parse-error" d.D.rule
  | ds -> Alcotest.failf "expected one parse-error, got %d" (List.length ds)

(* ------------------------- cross-file rules -------------------------- *)

let test_race_positives () =
  check_diags "race_bad"
    [
      "race_bad.ml:10:25: [domain-unsafe-state] unguarded use of \
       module-level mutable state Race_bad.gauges (hash table, \
       race_bad.ml:6) from domain-reachable code in Race_bad.set: wrap it \
       in Atomic, guard it with a Mutex, or move it to Domain.DLS";
      "race_bad.ml:11:14: [domain-unsafe-state] unguarded write to a \
       mutable field of 'g', an alias of module-level mutable state \
       Race_bad.gauges (hash table, race_bad.ml:6), from domain-reachable \
       code in Race_bad.set: wrap the field in Atomic or guard the write \
       with the owning Mutex";
      "race_bad.ml:12:28: [domain-unsafe-state] unguarded use of \
       module-level mutable state Race_bad.gauges (hash table, \
       race_bad.ml:6) from domain-reachable code in Race_bad.set: wrap it \
       in Atomic, guard it with a Mutex, or move it to Domain.DLS";
      "race_bad.ml:20:9: [domain-unsafe-state] unguarded use of \
       module-level mutable state Race_bad.current (ref cell, \
       race_bad.ml:16) from domain-reachable code in Race_bad.event: wrap \
       it in Atomic, guard it with a Mutex, or move it to Domain.DLS";
      "race_bad.ml:22:14: [domain-unsafe-state] unguarded write to a \
       mutable field of 'r', an alias of module-level mutable state \
       Race_bad.current (ref cell, race_bad.ml:16), from domain-reachable \
       code in Race_bad.event: wrap the field in Atomic or guard the \
       write with the owning Mutex";
    ]
    (lint_cross [ Rules.domain_unsafe_state ] [ "race_bad.ml" ])

let test_race_negatives () =
  check_diags "race_ok" []
    (lint_cross [ Rules.domain_unsafe_state ] [ "race_ok.ml" ])

let test_taint_positives () =
  check_diags "taint_bad"
    [
      "taint_bad.ml:11:25: [secret-flow] possible secret leak in \
       Taint_bad.leak_direct: value derived from Rng.bytes flows into \
       Printf.printf";
      "taint_bad.ml:15:11: [secret-flow] possible secret leak in \
       Taint_bad.leak_producer: value derived from Rng.bytes via \
       Taint_bad.make_key flows into failwith";
      "taint_bad.ml:20:38: [secret-flow] possible secret leak in \
       Taint_bad.leak_annotated: value derived from a '(* prio-lint: \
       secret *)' annotation on Taint_bad.api_token flows into \
       print_endline";
      "taint_bad.ml:24:11: [secret-flow] possible secret leak in \
       Taint_bad.leak_wrapper: value derived from Rng.bytes reaches \
       print_endline via Taint_bad.log_line";
      "taint_bad.ml:28:26: [secret-flow] possible secret leak in \
       Taint_bad.leak_exn: value derived from Rng.bytes flows into an \
       exception payload";
    ]
    (lint_cross [ Rules.secret_flow ] [ "taint_bad.ml" ])

let test_taint_negatives () =
  check_diags "taint_ok" []
    (lint_cross [ Rules.secret_flow ] [ "taint_ok.ml" ])

(* Call-graph resolution: the Prio.* facade, functor-application
   aliases, and [open Core] all resolve through to defining modules. *)
let test_callgraph () =
  let parse (path, src) =
    match Driver.parse_implementation ~path src with
    | Ok str -> (path, src, str)
    | Error d -> Alcotest.failf "parse %s: %s" path (D.to_string d)
  in
  let cg =
    Callgraph.build
      (List.map parse
         [
           ("lib/obs/trace.ml", "let event () = ()");
           ( "lib/proto/cluster.ml",
             "module Make (F : sig end) = struct\n\
             \  let submit _c = Prio_obs.Trace.event ()\n\
              end" );
           ( "lib/core/prio.ml",
             "module Obs_trace = Prio_obs.Trace\n\
              module Cluster = Prio_proto.Cluster" );
           ( "bin/app.ml",
             "open Core\n\
              module C = Prio.Cluster.Make (struct end)\n\
              let go c = C.submit c\n\
              let use () = Prio.Obs_trace.event ()" );
         ])
  in
  let alias p = Callgraph.alias_of cg p in
  Alcotest.(check (option string))
    "facade alias" (Some "Prio_obs.Trace") (alias "Core.Prio.Obs_trace");
  Alcotest.(check (option string))
    "functor application resolves to the functor"
    (Some "Prio_proto.Cluster.Make") (alias "App.C");
  let calls id =
    match Callgraph.find cg id with
    | Some fn -> fn.Callgraph.fn_calls
    | None -> Alcotest.failf "function %s not in graph" id
  in
  Alcotest.(check (list string))
    "call through alias chain" [ "Prio_proto.Cluster.Make.submit" ]
    (calls "App.go");
  Alcotest.(check (list string))
    "call through the facade" [ "Prio_obs.Trace.event" ] (calls "App.use");
  Alcotest.(check (list string))
    "direct library call from inside a functor" [ "Prio_obs.Trace.event" ]
    (calls "Prio_proto.Cluster.Make.submit")

(* Every race-check root names a function the whole repo defines: a
   renamed or deleted fan-out point would otherwise silently stop rooting
   the domain-unsafe-state walk. *)
let test_spawn_roots_resolve () =
  let files =
    Driver.source_files ~root [ "lib"; "bin"; "bench"; "examples" ]
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (fun path ->
           let src = read_file (Filename.concat root path) in
           match Driver.parse_implementation ~path src with
           | Ok str -> (path, src, str)
           | Error d -> Alcotest.failf "parse %s: %s" path (D.to_string d))
  in
  let cg = Callgraph.build files in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is defined" id)
        true
        (Option.is_some (Callgraph.find cg id)))
    Prio_analysis.Concurrency.spawn_fn_ids

(* ------------------------------ policy ------------------------------- *)

let test_policy () =
  let sev = Policy.severity_of in
  Alcotest.(check bool) "ct-compare hot in crypto" true
    (sev "lib/crypto/hmac.ml" Rules.ct_compare = Some D.Error);
  Alcotest.(check bool) "ct-compare off in proto" true
    (sev "lib/proto/net.ml" Rules.ct_compare = None);
  Alcotest.(check bool) "entropy seam exempt" true
    (sev "lib/crypto/rng.ml" Rules.no_ambient_random = None);
  Alcotest.(check bool) "retry seam is not an entropy seam" true
    (sev "lib/proto/retry.ml" Rules.no_ambient_random = Some D.Error);
  Alcotest.(check bool) "ambient randomness an error elsewhere" true
    (sev "lib/crypto/chacha20.ml" Rules.no_ambient_random = Some D.Error);
  Alcotest.(check bool) "retry seam exempt from the clock rule" true
    (sev "lib/proto/retry.ml" Rules.no_ambient_clock = None);
  Alcotest.(check bool) "obs clock seam exempt from the clock rule" true
    (sev "lib/obs/clock.ml" Rules.no_ambient_clock = None);
  Alcotest.(check bool) "entropy seam exempt from the clock rule" true
    (sev "lib/crypto/rng.ml" Rules.no_ambient_clock = None);
  Alcotest.(check bool) "ambient clock an error elsewhere" true
    (sev "lib/proto/net.ml" Rules.no_ambient_clock = Some D.Error);
  Alcotest.(check bool) "bench may read the wall clock" true
    (sev "bench/main.ml" Rules.no_ambient_clock = None
    && sev "bench/main.ml" Rules.no_ambient_random = None);
  Alcotest.(check bool) "error-discipline scoped to proto" true
    (sev "lib/proto/server.ml" Rules.error_discipline = Some D.Error
    && sev "lib/afe/sum.ml" Rules.error_discipline = None);
  Alcotest.(check bool) "partial functions a warning in examples" true
    (sev "examples/survey.ml" Rules.no_partial_stdlib = Some D.Warning);
  Alcotest.(check bool) "debug IO fine in binaries" true
    (sev "bin/prio_cli.ml" Rules.no_debug_io = None);
  Alcotest.(check bool) "races are errors everywhere" true
    (sev "lib/obs/trace.ml" Rules.domain_unsafe_state = Some D.Error
    && sev "bench/main.ml" Rules.domain_unsafe_state = Some D.Error);
  Alcotest.(check bool) "secret leaks an error in lib and bin" true
    (sev "lib/proto/client.ml" Rules.secret_flow = Some D.Error
    && sev "bin/prio_cli.ml" Rules.secret_flow = Some D.Error);
  Alcotest.(check bool) "secret leaks advisory in bench" true
    (sev "bench/main.ml" Rules.secret_flow = Some D.Warning);
  Alcotest.(check bool) "cross rules are not per-file AST rules" true
    (List.for_all
       (fun r -> not (List.mem r (Policy.ast_rules_for "lib/obs/trace.ml")))
       Policy.cross_rules)

(* ----------------------------- tree gate ----------------------------- *)

(* ------------------------- circuit budgets --------------------------- *)

module Budget = Prio_analysis.Budget

let bentry name mul wires line = { Budget.name; mul; wires; line }

let test_budget_parse () =
  let parsed =
    Budget.parse ~file:"b"
      "# header\nsum8 mul=8 wires=41\n\nvariance8 mul=9 wires=45 # inline\n"
  in
  (match parsed with
  | Error d -> Alcotest.fail (D.to_string d)
  | Ok entries ->
    Alcotest.(check int) "two entries" 2 (List.length entries);
    let e = List.hd entries in
    Alcotest.(check string) "name" "sum8" e.Budget.name;
    Alcotest.(check int) "mul" 8 e.Budget.mul;
    Alcotest.(check int) "wires" 41 e.Budget.wires;
    Alcotest.(check int) "line" 2 e.Budget.line);
  (match Budget.parse ~file:"b" "sum8 mul=eight wires=41\n" with
  | Ok _ -> Alcotest.fail "non-numeric count parsed"
  | Error d ->
    Alcotest.(check string) "parse diagnostic"
      "b:1:0: [circuit-budget] mul= and wires= need non-negative integers"
      (D.to_string d));
  match Budget.parse ~file:"b" "sum8 mul=8\n" with
  | Ok _ -> Alcotest.fail "short line parsed"
  | Error d ->
    Alcotest.(check string) "shape diagnostic"
      "b:1:0: [circuit-budget] expected `<name> mul=<m> wires=<w>`"
      (D.to_string d)

let test_budget_roundtrip () =
  let entries = [ bentry "sum8" 8 41 0; bentry "or" 0 0 0 ] in
  match Budget.parse ~file:"b" (Budget.format entries) with
  | Error d -> Alcotest.fail (D.to_string d)
  | Ok parsed ->
    Alcotest.(check (list string)) "names survive"
      (List.map (fun e -> e.Budget.name) entries)
      (List.map (fun e -> e.Budget.name) parsed);
    List.iter2
      (fun a b ->
        Alcotest.(check int) "mul" a.Budget.mul b.Budget.mul;
        Alcotest.(check int) "wires" a.Budget.wires b.Budget.wires)
      entries parsed

let test_budget_check () =
  let budget = [ bentry "sum8" 8 41 4; bentry "gone" 5 9 5 ] in
  let measured = [ bentry "sum8" 9 44 0; bentry "new8" 3 7 0 ] in
  let diags = Budget.check ~file:"b" ~budget ~measured in
  check_diags "exact-pin diff"
    [
      "b:4:0: [circuit-budget] circuit sum8 regressed: budget mul=8 \
       wires=41, measured mul=9 wires=44; run `prio_lint --update-budgets` \
       and review the diff";
      "b:1:0: [circuit-budget] circuit new8 (mul=3 wires=7) has no budget \
       entry; run `prio_lint --update-budgets` and review the diff";
      "b:5:0: [circuit-budget] budget entry gone matches no measured \
       circuit; run `prio_lint --update-budgets` and review the diff";
    ]
    (List.map D.to_string diags);
  (* an improvement is also a divergence: the ledger must be re-pinned *)
  let diags =
    Budget.check ~file:"b"
      ~budget:[ bentry "sum8" 9 44 1 ]
      ~measured:[ bentry "sum8" 8 41 0 ]
  in
  (match diags with
  | [ d ] ->
    Alcotest.(check bool) "improvement flagged" true
      (String.length d.D.message > 0 && d.D.rule = Rules.circuit_budget)
  | _ -> Alcotest.fail "expected exactly one diagnostic");
  Alcotest.(check (list string)) "exact match is clean" []
    (List.map D.to_string
       (Budget.check ~file:"b"
          ~budget:[ bentry "sum8" 8 41 1 ]
          ~measured:[ bentry "sum8" 8 41 0 ]))

(* --------------------------- metric ledger --------------------------- *)

module Metricreg = Prio_analysis.Metricreg

let mreg name kind file line =
  { Metricreg.r_name = name; r_kind = kind; r_file = file; r_line = line }

let mentry name kind line = { Metricreg.name; kind; line }

let test_metricreg_collect () =
  let src =
    "let c = Metrics.counter \"prio_a_total\"\n\
     let g = Obs_metrics.gauge \"prio_b\"\n\
     let h = Prio_obs.Metrics.histogram \"prio_c_seconds\"\n\
     let _ = Metrics.add c 1\n\
     let name = \"computed\"\n\
     let _ = Metrics.counter name\n\
     let _ = Other.counter \"not_a_metric\"\n"
  in
  match Driver.parse_implementation ~path:"m.ml" src with
  | Error d -> Alcotest.fail (D.to_string d)
  | Ok str ->
    let regs = Metricreg.collect_structure ~file:"m.ml" str in
    Alcotest.(check (list (pair string string)))
      "literal registrations through the Metrics aliases, nothing else"
      [
        ("prio_a_total", "counter");
        ("prio_b", "gauge");
        ("prio_c_seconds", "histogram");
      ]
      (List.map
         (fun r ->
           (r.Metricreg.r_name, Metricreg.kind_to_string r.Metricreg.r_kind))
         regs);
    Alcotest.(check (list int)) "call-site lines recorded" [ 1; 2; 3 ]
      (List.map (fun r -> r.Metricreg.r_line) regs)

let test_metricreg_roundtrip () =
  let entries =
    [
      mentry "prio_a_total" Metricreg.Counter 0;
      mentry "prio_b_seconds" Metricreg.Histogram 0;
    ]
  in
  (match Metricreg.parse ~file:"l" (Metricreg.format entries) with
  | Error d -> Alcotest.fail (D.to_string d)
  | Ok parsed ->
    Alcotest.(check (list (pair string string)))
      "names and kinds survive the round trip"
      (List.map
         (fun (e : Metricreg.entry) ->
           (e.Metricreg.name, Metricreg.kind_to_string e.Metricreg.kind))
         entries)
      (List.map
         (fun (e : Metricreg.entry) ->
           (e.Metricreg.name, Metricreg.kind_to_string e.Metricreg.kind))
         parsed));
  (match Metricreg.parse ~file:"l" "x kind=knob\n" with
  | Ok _ -> Alcotest.fail "bad kind parsed"
  | Error d ->
    Alcotest.(check string) "kind diagnostic"
      "l:1:0: [metric-registry] kind= must be counter, gauge, or histogram"
      (D.to_string d));
  match Metricreg.parse ~file:"l" "lonely\n" with
  | Ok _ -> Alcotest.fail "short line parsed"
  | Error d ->
    Alcotest.(check string) "shape diagnostic"
      "l:1:0: [metric-registry] expected `<name> kind=<kind>`"
      (D.to_string d)

let test_metricreg_check () =
  let ledger =
    [
      mentry "prio_a_total" Metricreg.Counter 5;
      mentry "prio_gone" Metricreg.Gauge 6;
    ]
  in
  let measured =
    [
      mreg "prio_a_total" Metricreg.Histogram "lib/a.ml" 3;
      mreg "prio_new" Metricreg.Counter "lib/b.ml" 9;
    ]
  in
  check_diags "exact-pin diff"
    [
      "l:5:0: [metric-registry] metric prio_a_total changed kind: ledger \
       says counter, code registers histogram; run `prio_lint \
       --update-metrics` and review the diff";
      "l:1:0: [metric-registry] metric prio_new kind=counter has no ledger \
       entry (registered at lib/b.ml:9); run `prio_lint --update-metrics` \
       and review the diff";
      "l:6:0: [metric-registry] ledger entry prio_gone matches no \
       registration in the code; run `prio_lint --update-metrics` and \
       review the diff";
    ]
    (List.map D.to_string (Metricreg.check ~file:"l" ~ledger ~measured));
  (* one name registered under two kinds is broken whatever the ledger
     says *)
  (match
     Metricreg.check ~file:"l" ~ledger:[]
       ~measured:
         [
           mreg "prio_dup" Metricreg.Counter "a.ml" 1;
           mreg "prio_dup" Metricreg.Gauge "b.ml" 2;
         ]
   with
  | d :: _ ->
    Alcotest.(check string) "kind conflict"
      "l:1:0: [metric-registry] metric prio_dup registered as counter \
       (a.ml:1) and as gauge (b.ml:2)"
      (D.to_string d)
  | [] -> Alcotest.fail "kind conflict undetected");
  Alcotest.(check (list string)) "exact match is clean" []
    (List.map D.to_string
       (Metricreg.check ~file:"l"
          ~ledger:[ mentry "prio_a_total" Metricreg.Counter 1 ]
          ~measured:[ mreg "prio_a_total" Metricreg.Counter "a.ml" 1 ]))

let test_metric_ledger_current () =
  (* the committed ledger matches what the code actually registers — the
     same diff `dune build @lint` gates on *)
  let text = read_file (Filename.concat root ".prio-metrics") in
  match Metricreg.parse ~file:".prio-metrics" text with
  | Error d -> Alcotest.fail (D.to_string d)
  | Ok ledger ->
    let measured =
      Metricreg.measure ~root ~dirs:[ "lib"; "bin"; "bench"; "examples" ]
    in
    check_diags "the committed ledger is current" []
      (List.map D.to_string
         (Metricreg.check ~file:".prio-metrics" ~ledger ~measured))

let test_tree_clean () =
  let baseline = Baseline.load (Filename.concat root ".prio-lint-baseline") in
  let diags =
    Driver.lint_tree ~baseline ~root
      ~dirs:[ "lib"; "bin"; "bench"; "examples" ] ()
  in
  check_diags "the tree is lint-clean" [] (List.map D.to_string diags)

let () =
  Alcotest.run "lint"
    [
      ( "corpus",
        [
          Alcotest.test_case "ct-compare positives" `Quick
            test_ct_compare_positives;
          Alcotest.test_case "ct-compare negatives" `Quick
            test_ct_compare_negatives;
          Alcotest.test_case "no-ambient-random positives" `Quick
            test_ambient_positives;
          Alcotest.test_case "no-ambient-random negatives" `Quick
            test_ambient_negatives;
          Alcotest.test_case "no-ambient-clock positives" `Quick
            test_clock_positives;
          Alcotest.test_case "no-ambient-clock negatives" `Quick
            test_clock_negatives;
          Alcotest.test_case "error-discipline positives" `Quick
            test_error_discipline_positives;
          Alcotest.test_case "error-discipline negatives" `Quick
            test_error_discipline_negatives;
          Alcotest.test_case "no-debug-io positives" `Quick
            test_debug_io_positives;
          Alcotest.test_case "no-debug-io negatives" `Quick
            test_debug_io_negatives;
          Alcotest.test_case "no-partial-stdlib positives" `Quick
            test_partial_positives;
          Alcotest.test_case "no-partial-stdlib negatives" `Quick
            test_partial_negatives;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
          Alcotest.test_case "inline suppressions" `Quick test_suppressions;
          Alcotest.test_case "baseline" `Quick test_baseline;
          Alcotest.test_case "parse errors reported" `Quick test_parse_error;
          Alcotest.test_case "domain-unsafe-state positives" `Quick
            test_race_positives;
          Alcotest.test_case "domain-unsafe-state negatives" `Quick
            test_race_negatives;
          Alcotest.test_case "secret-flow positives" `Quick
            test_taint_positives;
          Alcotest.test_case "secret-flow negatives" `Quick
            test_taint_negatives;
          Alcotest.test_case "call-graph resolution" `Quick test_callgraph;
          Alcotest.test_case "race-check roots resolve" `Quick
            test_spawn_roots_resolve;
        ] );
      ("policy", [ Alcotest.test_case "severity map" `Quick test_policy ]);
      ( "budget",
        [
          Alcotest.test_case "parse" `Quick test_budget_parse;
          Alcotest.test_case "format round-trip" `Quick test_budget_roundtrip;
          Alcotest.test_case "exact-pin check" `Quick test_budget_check;
        ] );
      ( "metric registry",
        [
          Alcotest.test_case "collect registrations" `Quick
            test_metricreg_collect;
          Alcotest.test_case "ledger round-trip" `Quick
            test_metricreg_roundtrip;
          Alcotest.test_case "exact-pin check" `Quick test_metricreg_check;
          Alcotest.test_case "committed ledger is current" `Quick
            test_metric_ledger_current;
        ] );
      ( "tree",
        [ Alcotest.test_case "repo is clean" `Quick test_tree_clean ] );
    ]

(* The domain-unsafe-state pass.

   Three stages over the call graph:

   1. Roots: every call site of a domain-entry primitive — [Domain.spawn]
      plus the repo's own fan-out points ([Parallel.map],
      [Parallel.process]) — marks the functions referenced in its
      argument subtrees as running on a worker domain. The primitive
      itself (when intra-repo) is marked too: its body runs on every
      domain it fans out to. Closures that are stored and invoked through
      data structures are only visible at these known spawn points
      (documented under-approximation).

   2. Reachability: the on-domain set is the closure of the roots over
      the call edges (any resolved reference counts, so a function passed
      as a value is reached).

   3. Guarded-access check: inside on-domain code, any use of an
      inventoried module-level mutable binding ({!Mutstate}) must be
      guarded. Guards are recognized as (a) the whole body of a function
      that takes [Mutex.lock]/[Mutex.protect] or touches [Domain.DLS]
      directly (coarse on purpose: such functions manage their own
      critical sections), and (b) argument subtrees of calls to guard
      functions, where the guard set is closed under a fixpoint — a
      function that feeds one of its own function parameters into a
      guard (the [with_lock f]/[register ... mk unpack] wrapper pattern)
      is itself a guard. [Atomic]/[Domain.DLS]/[Mutex] bindings are safe
      by construction and never flagged.

      Mutable-field writes are additionally flagged on local aliases of
      inventoried state: a let/match binding whose right-hand side
      mentions an unsafe binding taints the bound names, and
      [alias.field <- v] on a tainted name is an unguarded write (the
      exact shape of the pre-fix PR 5 gauge race). *)

open Parsetree

let path_of lid =
  match Callgraph.flat lid with "Stdlib" :: rest -> rest | l -> l

(* Intra-repo fan-out points, by canonical id. *)
let spawn_fn_ids =
  [
    "Prio_proto.Parallel.map";
    "Prio_proto.Parallel.Make.process";
  ]

let is_domain_spawn lid = path_of lid = [ "Domain"; "spawn" ]

let is_lock_prim lid =
  match path_of lid with
  | [ "Mutex"; ("lock" | "protect") ] | "Domain" :: "DLS" :: _ -> true
  | _ -> false

let is_mutex_protect lid = path_of lid = [ "Mutex"; "protect" ]

(* Does [e] contain an ident satisfying [p]? *)
let expr_has p e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> if p txt then found := true
          | _ -> ());
          if not !found then Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let iter_exprs f e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e

let pattern_vars pat =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var v -> acc := v.txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it pat;
  !acc

(* ------------------------------ guards -------------------------------- *)

let direct_guard (fn : Callgraph.func) = expr_has is_lock_prim fn.fn_body

let guard_fixpoint cg funcs guards0 =
  let guards = Hashtbl.copy guards0 in
  let is_guard_head scope txt =
    is_mutex_protect txt
    ||
    match Callgraph.resolve_fn cg scope txt with
    | Some id -> Hashtbl.mem guards id
    | None -> false
  in
  let feeds_param_to_guard (fn : Callgraph.func) =
    let hit = ref false in
    iter_exprs
      (fun e ->
        match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
          when (not !hit) && is_guard_head fn.fn_scope txt ->
          if
            List.exists
              (fun (_, a) ->
                expr_has
                  (function
                    | Longident.Lident x -> List.mem x fn.fn_params
                    | _ -> false)
                  a)
              args
          then hit := true
        | _ -> ())
      fn.fn_body;
    !hit
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fn : Callgraph.func) ->
        if
          (not (Hashtbl.mem guards fn.fn_id))
          && fn.fn_params <> []
          && feeds_param_to_guard fn
        then begin
          Hashtbl.replace guards fn.fn_id ();
          changed := true
        end)
      funcs
  done;
  guards

(* --------------------------- spawn roots ------------------------------ *)

type site = { st_fn : Callgraph.func; st_args : expression list }

let spawn_sites cg (fn : Callgraph.func) =
  let sites = ref [] in
  iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let prim =
          if is_domain_spawn txt then Some None
          else
            match Callgraph.resolve_fn cg fn.fn_scope txt with
            | Some id when List.mem id spawn_fn_ids -> Some (Some id)
            | _ -> None
        in
        (match prim with
        | Some callee ->
          sites :=
            (callee, { st_fn = fn; st_args = List.map snd args }) :: !sites
        | None -> ())
      | _ -> ())
    fn.fn_body;
  !sites

(* ------------------------- the pass itself ---------------------------- *)

let run cg =
  let funcs = Callgraph.functions cg in
  let inits = Callgraph.inits cg in
  let inv = Mutstate.inventory cg in
  let guards0 = Hashtbl.create 64 in
  List.iter
    (fun fn ->
      if direct_guard fn then Hashtbl.replace guards0 fn.Callgraph.fn_id ())
    funcs;
  let guards = guard_fixpoint cg funcs guards0 in
  (* roots *)
  let sites = List.concat_map (spawn_sites cg) (funcs @ inits) in
  let roots = Hashtbl.create 32 in
  List.iter
    (fun (callee, site) ->
      (match callee with
      | Some id -> Hashtbl.replace roots id ()
      | None -> ());
      List.iter
        (iter_exprs (fun e ->
             match e.pexp_desc with
             | Pexp_ident { txt; _ } -> (
               match Callgraph.resolve_fn cg site.st_fn.fn_scope txt with
               | Some id -> Hashtbl.replace roots id ()
               | None -> ())
             | _ -> ()))
        site.st_args)
    sites;
  (* reachability closure over call edges *)
  let on_domain = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem on_domain id) then begin
      Hashtbl.replace on_domain id ();
      match Callgraph.find cg id with
      | Some fn -> List.iter visit fn.fn_calls
      | None -> ()
    end
  in
  Hashtbl.iter (fun id () -> visit id) roots;
  (* local aliases of inventoried state, per function *)
  let alias_map (fn : Callgraph.func) =
    let taints : (string, Mutstate.entry) Hashtbl.t = Hashtbl.create 8 in
    let origin_of e =
      let found = ref None in
      iter_exprs
        (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } when !found = None -> (
            match Mutstate.resolve cg inv fn.fn_scope txt with
            | Some entry when Mutstate.is_unsafe entry.ms_kind ->
              found := Some entry
            | _ -> (
              match txt with
              | Longident.Lident x -> (
                match Hashtbl.find_opt taints x with
                | Some entry -> found := Some entry
                | None -> ())
              | _ -> ()))
          | _ -> ())
        e;
      !found
    in
    let scan () =
      iter_exprs
        (fun e ->
          match e.pexp_desc with
          | Pexp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                match origin_of vb.pvb_expr with
                | Some entry ->
                  List.iter
                    (fun x -> Hashtbl.replace taints x entry)
                    (pattern_vars vb.pvb_pat)
                | None -> ())
              vbs
          | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) -> (
            match origin_of scrut with
            | Some entry ->
              List.iter
                (fun c ->
                  List.iter
                    (fun x -> Hashtbl.replace taints x entry)
                    (pattern_vars c.pc_lhs))
                cases
            | None -> ())
          | _ -> ())
        fn.fn_body
    in
    (* two passes: bindings can reference aliases bound later in scan order *)
    scan ();
    scan ();
    taints
  in
  (* guarded-access walk *)
  let findings = ref [] in
  let add loc message = findings := { Rules.loc; message } :: !findings in
  let where_of (entry : Mutstate.entry) =
    Printf.sprintf "%s (%s, %s:%d)" entry.ms_id
      (Mutstate.kind_name entry.ms_kind)
      entry.ms_file entry.ms_line
  in
  let check_expr (fn : Callgraph.func) taints ~guarded expr =
    let is_guard_head txt =
      is_mutex_protect txt
      ||
      match Callgraph.resolve_fn cg fn.fn_scope txt with
      | Some id -> Hashtbl.mem guards id
      | None -> false
    in
    let rec check guarded e =
      let descend guarded e =
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ e -> check guarded e);
          }
        in
        Ast_iterator.default_iterator.expr it e
      in
      match e.pexp_desc with
      | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as head), args)
        ->
        let g = guarded || is_guard_head txt in
        check guarded head;
        List.iter (fun (_, a) -> check g a) args
      | Pexp_ident { txt; loc } ->
        if not guarded then (
          match Mutstate.resolve cg inv fn.fn_scope txt with
          | Some entry when Mutstate.is_unsafe entry.ms_kind ->
            add loc
              (Printf.sprintf
                 "unguarded use of module-level mutable state %s from \
                  domain-reachable code in %s: wrap it in Atomic, guard it \
                  with a Mutex, or move it to Domain.DLS"
                 (where_of entry) fn.fn_id)
          | _ -> ())
      | Pexp_setfield
          (({ pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ } as
            e1),
           _, e2) ->
        (if not guarded then
           match Hashtbl.find_opt taints x with
           | Some entry ->
             add e.pexp_loc
               (Printf.sprintf
                  "unguarded write to a mutable field of '%s', an alias of \
                   module-level mutable state %s, from domain-reachable \
                   code in %s: wrap the field in Atomic or guard the write \
                   with the owning Mutex"
                  x (where_of entry) fn.fn_id)
           | None -> ());
        check guarded e1;
        check guarded e2
      | _ -> descend guarded e
    in
    check guarded expr
  in
  (* whole bodies of reachable functions (guard-owning bodies skipped) *)
  List.iter
    (fun (fn : Callgraph.func) ->
      if
        Hashtbl.mem on_domain fn.Callgraph.fn_id
        && not (Hashtbl.mem guards0 fn.Callgraph.fn_id)
      then check_expr fn (alias_map fn) ~guarded:false fn.fn_body)
    funcs;
  (* spawn-site argument subtrees of functions not themselves on-domain *)
  List.iter
    (fun (_, site) ->
      let fn = site.st_fn in
      if not (Hashtbl.mem on_domain fn.Callgraph.fn_id) then begin
        let guarded = Hashtbl.mem guards0 fn.Callgraph.fn_id in
        let taints = alias_map fn in
        List.iter (check_expr fn taints ~guarded) site.st_args
      end)
    sites;
  List.sort_uniq
    (fun (a : Rules.finding) b ->
      let c =
        String.compare a.loc.Location.loc_start.pos_fname
          b.loc.Location.loc_start.pos_fname
      in
      if c <> 0 then c
      else
        let c =
          Int.compare a.loc.loc_start.pos_lnum b.loc.loc_start.pos_lnum
        in
        if c <> 0 then c
        else
          let c =
            Int.compare
              (a.loc.loc_start.pos_cnum - a.loc.loc_start.pos_bol)
              (b.loc.loc_start.pos_cnum - b.loc.loc_start.pos_bol)
          in
          if c <> 0 then c else String.compare a.message b.message)
    !findings

(* Aggregated analysis report: runs every client analysis over a
   lowered program and collects diagnostics for `lmc analyze` and the
   compiler driver.

   Diagnostic codes:
   - LMA001  note     global function is provably pure
   - LMA002  error    source rate never positive (graph wedges)
   - LMA003  warning  an edge's per-firing burst exceeds the FIFO capacity
   - LMA004  warning  task graph constructed only in unreachable code
   - LMA005  warning  source rate may be non-positive
   - LMA006  error    array access provably out of bounds
   - LMA007  note     all array accesses provably in bounds
   - LMA008  note     effects of a global function
   - LMA009  warning  branch decided at compile time (dead code)
   - LMA010  error    balance equations unsolvable (no steady state exists)
   - LMA011  note     dynamic rates: no static schedule, solved per run
   - LMA012  note     balance equations solved (repetition vector reported)
   - LMA013  note     some (not all) array accesses proven in bounds
   - LMA014  note     proven accesses compile to unguarded loads/stores
   - LMA015  note     reduce combiner proven associative (K>1 tree eligible)
   - LMA016  note     reduce combiner not proven associative (pinned K=1)
   - LMA017  note     maximal filter run is fusible (one note per run)
   - LMA018  note     adjacent filter pair is not fusible (reason given) *)

module Ir = Lime_ir.Ir

type severity = Error | Warning | Note

type diag = {
  d_sev : severity;
  d_loc : Support.Srcloc.t;
  d_uid : string;
      (** stable subject identifier: function key, template uid or
          kernel-site uid; the primary sort key *)
  d_code : string;
  d_msg : string;
}

type t = {
  diags : diag list;
  effects : Effects.t;  (** reusable by the device backends *)
  ranges : Range.program_facts;
  symbolic : Symbolic.program_facts;
      (** per-access bounds proofs; consumed by the backends *)
}

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let pp_diag ppf d =
  Format.fprintf ppf "%a: %s: [%s] %s" Support.Srcloc.pp d.d_loc
    (severity_label d.d_sev) d.d_code d.d_msg

let count sev diags = List.length (List.filter (fun d -> d.d_sev = sev) diags)
let error_count = count Error

let summary_line diags =
  Printf.sprintf "%d error(s), %d warning(s), %d note(s)" (count Error diags)
    (count Warning diags) (count Note diags)

let render ppf (diags : diag list) =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp_diag d) diags

(* --- JSON ---------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json (diags : diag list) =
  let item d =
    Printf.sprintf
      "{\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"uid\":\"%s\",\"code\":\"%s\",\"message\":\"%s\"}"
      (severity_label d.d_sev)
      (json_escape d.d_loc.Support.Srcloc.file)
      d.d_loc.Support.Srcloc.line d.d_loc.Support.Srcloc.col
      (json_escape d.d_uid) (json_escape d.d_code) (json_escape d.d_msg)
  in
  Printf.sprintf
    "{\"diagnostics\":[%s],\"errors\":%d,\"warnings\":%d,\"notes\":%d}"
    (String.concat "," (List.map item diags))
    (count Error diags) (count Warning diags) (count Note diags)

(* --- analysis ------------------------------------------------------ *)

let analyze ?(fifo_capacity = 16) ?(fuse = true) (prog : Ir.program) : t =
  let effects = Effects.infer prog in
  let ranges = Range.analyze_program prog in
  let symbolic = Symbolic.analyze_program prog in
  let diags = ref [] in
  let add sev loc uid code msg =
    diags :=
      { d_sev = sev; d_loc = loc; d_uid = uid; d_code = code; d_msg = msg }
      :: !diags
  in
  (* Purity and effects of global functions: these drive device
     eligibility, so surface them. *)
  Ir.String_map.iter
    (fun key (fn : Ir.func) ->
      if not fn.Ir.fn_local then
        match Effects.summary effects key with
        | [] ->
          add Note fn.Ir.fn_loc key "LMA001"
            (Printf.sprintf
               "global function %s is provably pure (eligible for device \
                compilation)"
               key)
        | witnesses ->
          add Note fn.Ir.fn_loc key "LMA008"
            (Printf.sprintf "global function %s: %s" key
               (String.concat "; "
                  (List.map Effects.describe
                     (List.map (fun (w : Effects.witness) -> w.Effects.w_effect)
                        witnesses)))))
    prog.funcs;
  (* Bounds findings per function, from the relational domain (which
     subsumes [Range]'s verdicts access by access). *)
  List.iter
    (fun (key, (facts : Symbolic.fn_facts)) ->
      let fn = Ir.func_exn prog key in
      let total = facts.Symbolic.sf_total in
      let proven = facts.Symbolic.sf_proven in
      let oob = facts.Symbolic.sf_oob in
      if oob > 0 then
        add Error fn.Ir.fn_loc key "LMA006"
          (Printf.sprintf
             "%s: %d array access(es) provably out of bounds (always traps)"
             key oob);
      if total > 0 && proven = total then
        add Note fn.Ir.fn_loc key "LMA007"
          (Printf.sprintf "%s: all %d array access(es) provably in bounds" key
             total)
      else if proven > 0 then
        add Note fn.Ir.fn_loc key "LMA013"
          (Printf.sprintf "%s: %d of %d array access(es) proven in bounds" key
             proven total);
      if proven > 0 then
        add Note fn.Ir.fn_loc key "LMA014"
          (Printf.sprintf
             "%s: %d proven access(es) compile to unguarded loads/stores \
              (bounds checks elided)"
             key proven))
    symbolic.Symbolic.sp_fns;
  (* Dead-branch findings stay with the classic range analysis. *)
  List.iter
    (fun (key, (facts : Range.fn_facts)) ->
      let fn = Ir.func_exn prog key in
      if facts.Range.ff_dead_branches > 0 then
        add Warning fn.Ir.fn_loc key "LMA009"
          (Printf.sprintf "%s: %d branch(es) decided at compile time (dead code)"
             key facts.Range.ff_dead_branches))
    ranges.Range.pf_fns;
  (* Reduce combiners: the reassociation contract per kernel site. *)
  List.iter
    (fun site ->
      match site with
      | `Map _ -> ()
      | `Reduce (r : Ir.reduce_site) -> (
        match Algebra.analyze prog r.Ir.red_fn with
        | Algebra.Assoc_comm why ->
          add Note r.Ir.red_loc r.Ir.red_uid "LMA015"
            (Printf.sprintf
               "reduce %s: combiner %s proven associative+commutative (%s); \
                eligible for K>1 tree combining"
               r.Ir.red_uid r.Ir.red_fn why)
        | Algebra.Unknown why ->
          add Note r.Ir.red_loc r.Ir.red_uid "LMA016"
            (Printf.sprintf
               "reduce %s: combiner %s not proven associative (%s); pinned \
                at K=1"
               r.Ir.red_uid r.Ir.red_fn why)))
    (Ir.kernel_sites prog);
  (* Fusability: with [fuse] (the default) report each disjoint
     maximal fusible run once — a chain A-B-C yields one LMA017 for
     "A -> B -> C", not overlapping pair notes — plus one LMA018 per
     blocked adjacent pair. [~fuse:false] restores the legacy
     pair-by-pair view. *)
  (if fuse then (
     let rr = Fusability.runs prog effects in
     List.iter
       (fun (r : Fusability.run) ->
         let names =
           String.concat " -> "
             (List.map (fun (f : Ir.filter_info) -> f.Ir.uid) r.Fusability.fr_members)
         in
         let last = List.nth r.Fusability.fr_members
             (List.length r.Fusability.fr_members - 1) in
         add Note last.Ir.floc r.Fusability.fr_graph "LMA017"
           (Printf.sprintf
              "task graph %s: filters %s fuse into one segment (%s)"
              r.Fusability.fr_graph names r.Fusability.fr_why))
       rr.Fusability.rr_runs;
     List.iter
       (fun (p : Fusability.pair) ->
         let names =
           Printf.sprintf "%s -> %s" p.Fusability.fz_fst.Ir.uid
             p.Fusability.fz_snd.Ir.uid
         in
         match p.Fusability.fz_verdict with
         | Ok _ -> ()
         | Error why ->
           add Note p.Fusability.fz_snd.Ir.floc p.Fusability.fz_graph "LMA018"
             (Printf.sprintf "task graph %s: filters %s are not fusible: %s"
                p.Fusability.fz_graph names why))
       rr.Fusability.rr_blocked)
   else
     List.iter
       (fun (p : Fusability.pair) ->
         let names =
           Printf.sprintf "%s -> %s" p.Fusability.fz_fst.Ir.uid
             p.Fusability.fz_snd.Ir.uid
         in
         match p.Fusability.fz_verdict with
         | Ok why ->
           add Note p.Fusability.fz_snd.Ir.floc p.Fusability.fz_graph "LMA017"
             (Printf.sprintf "task graph %s: filters %s are fusible (%s)"
                p.Fusability.fz_graph names why)
         | Error why ->
           add Note p.Fusability.fz_snd.Ir.floc p.Fusability.fz_graph "LMA018"
             (Printf.sprintf "task graph %s: filters %s are not fusible: %s"
                p.Fusability.fz_graph names why))
       (Fusability.analyze prog effects));
  (* Task-graph lint. *)
  List.iter
    (fun (f : Graphlint.finding) ->
      let sev =
        match f.Graphlint.g_sev with
        | `Error -> Error
        | `Warning -> Warning
        | `Note -> Note
      in
      add sev f.Graphlint.g_loc f.Graphlint.g_uid f.Graphlint.g_code
        f.Graphlint.g_msg)
    (Graphlint.check prog ~fifo_capacity
       ~graph_args:ranges.Range.pf_graph_args);
  (* Deterministic order: subject uid first, then code, then message —
     stable across OCaml versions and map-iteration details. *)
  let ordered =
    List.sort
      (fun a b ->
        let c = compare a.d_uid b.d_uid in
        if c <> 0 then c
        else
          let c = compare a.d_code b.d_code in
          if c <> 0 then c else compare a.d_msg b.d_msg)
      (List.rev !diags)
  in
  { diags = ordered; effects; ranges; symbolic }

(* Per-access bounds-proof predicate for the backends: [prover report
   key instr] is [true] iff [instr]'s array access in function [key]
   was proven in bounds. *)
let prover (t : t) : string -> Ir.instr -> bool = Symbolic.prover t.symbolic

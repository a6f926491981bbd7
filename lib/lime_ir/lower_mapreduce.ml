(* Lowering map/reduce sites onto the task-graph substrate.

   The paper's data-parallel operators (`@` map and `@@` reduce,
   section 2) historically executed through ad-hoc VM hooks: the GPU
   backend registered a kernel per site and the runtime dispatched the
   whole array to it in one launch — invisible to the rate algebra,
   the placement planner and the fault-tolerant retry path that cover
   task graphs.

   This pass rewrites each kernel site into the same dataflow shape
   every other workload uses (the SOMD scatter/gather decomposition):

       scatter --1--> worker_0 --1--> gather
          \----1----> ...      --1----/
           \---1----> worker_{K-1} -1-/

   - the *scatter* source splits the input array into K contiguous
     chunks and hands each worker a chunk descriptor;
   - K replicated *worker* filters apply the site's function to their
     chunk — each worker is an ordinary [Ir.filter_info] whose UID is
     the site UID, so the artifact store's per-site GPU kernels and
     native binaries substitute for it unchanged;
   - the *gather* sink reassembles chunk results in offset order (map)
     or combines the per-chunk partial folds (reduce).

   All rates are static (1 descriptor per firing on every edge), so
   [Analysis.Rates] solves every lowered graph with the all-ones
   repetition vector, and the planner can cost the worker chain like
   any other filter chain. *)

type kind = K_map of Ir.map_site | K_reduce of Ir.reduce_site

type lowered = {
  lw_uid : string;  (** the kernel site's UID — also the worker UID *)
  lw_kind : kind;
  lw_fn : string;  (** the per-element function key *)
  lw_elem_ty : Ir.ty;  (** result element type *)
  lw_worker : Ir.filter_info;
      (** the replicated worker filter: the unit of substitution the
          store, planner and calibrator all see *)
}

let uid_of = function
  | K_map m -> m.Ir.map_uid
  | K_reduce r -> r.Ir.red_uid

let fn_of = function K_map m -> m.Ir.map_fn | K_reduce r -> r.Ir.red_fn

let loc_of = function K_map m -> m.Ir.map_loc | K_reduce r -> r.Ir.red_loc

(* The worker's stream type: what one element of the scattered input
   looks like. For a map it is the first mapped argument's element
   type; for a reduce the reduced array's element type. *)
let input_elem_ty = function
  | K_map m -> (
    match
      List.find_opt (fun ((_ : Ir.operand), mapped) -> mapped) m.Ir.map_args
    with
    | Some (op, _) -> (
      match Ir.operand_ty op with Ir.Arr t -> t | t -> t)
    | None -> m.Ir.map_elem_ty)
  | K_reduce r -> (
    match Ir.operand_ty r.Ir.red_arg with Ir.Arr t -> t | t -> t)

let worker_filter (k : kind) : Ir.filter_info =
  {
    Ir.uid = uid_of k;
    (* The worker UID *is* the site UID: [Artifact.chain_uid [worker]]
       collapses to it, so substitution planning finds the per-site
       G_map/G_reduce kernels and native binaries the backends already
       register under that key. *)
    target = Ir.F_static (fn_of k);
    relocatable = true;
    input = Ir.Arr (input_elem_ty k);
    (* A worker consumes a chunk (an array slice), not a scalar — the
       [Arr] port type routes the placement calibrator to its analytic
       model rather than the scalar microbenchmark. *)
    output =
      (match k with
      | K_map m -> Ir.Arr m.Ir.map_elem_ty
      | K_reduce r -> r.Ir.red_elem_ty);
    floc = loc_of k;
  }

let lower_site (k : kind) : lowered =
  {
    lw_uid = uid_of k;
    lw_kind = k;
    lw_fn = fn_of k;
    lw_elem_ty =
      (match k with
      | K_map m -> m.Ir.map_elem_ty
      | K_reduce r -> r.Ir.red_elem_ty);
    lw_worker = worker_filter k;
  }

(* Every kernel site in the program, lowered, keyed by site UID. *)
let lower_program (p : Ir.program) : lowered Ir.String_map.t =
  List.fold_left
    (fun acc site ->
      let lw =
        match site with
        | `Map m -> lower_site (K_map m)
        | `Reduce r -> lower_site (K_reduce r)
      in
      Ir.String_map.add lw.lw_uid lw acc)
    Ir.String_map.empty (Ir.kernel_sites p)

(* --- chunking policy --------------------------------------------------- *)

(* Default split granularity. Chunks below [min_chunk] elements are
   not worth a separate worker firing (device launches amortize over
   at least this many elements); [max_chunks] bounds the replication
   factor — the simulated devices expose no real parallelism, so more
   chunks only buy scheduling granularity, fault isolation and earlier
   first results, never throughput. *)
let default_min_chunk = 1024
let default_max_chunks = 4

(* How many chunks to scatter an [n]-element stream into. Maps split
   once they are large enough to amortize; reduces default to a single
   chunk because the combine step reassociates the fold — bit-exact
   only for associative operators. When the algebraic analysis proves
   the combiner associative and commutative ([assoc]), a reduce earns
   the map policy: the reassociation contract (docs/ANALYSIS.md)
   guarantees the chunked tree combine is bit-identical to the
   left-fold. [override] (the [map_chunks]/[reduce_chunks] knobs)
   forces a count, clamped so no chunk is empty. *)
let chunks_for ?override ?(assoc = false) ~(n : int) (k : kind) : int =
  let clamp c = max 1 (min c (max n 1)) in
  match override with
  | Some c -> clamp c
  | None -> (
    match k with
    | K_reduce _ when not assoc -> 1
    | K_reduce _ | K_map _ ->
      clamp (min default_max_chunks (n / default_min_chunk)))

(* Balanced contiguous [(offset, length)] bounds: the first [n mod k]
   chunks take the extra element, lengths never differ by more than
   one, and the chunks cover [0, n) exactly — including the
   length-not-divisible-by-K case. *)
let split_bounds ~(n : int) ~(chunks : int) : (int * int) list =
  let k = max 1 (min chunks (max n 1)) in
  let base = n / k and extra = n mod k in
  let rec go i offset acc =
    if i >= k then List.rev acc
    else
      let len = base + if i < extra then 1 else 0 in
      go (i + 1) (offset + len) ((offset, len) :: acc)
  in
  go 0 0 []

let kind_name = function K_map _ -> "map" | K_reduce _ -> "reduce"

(* --- weighted instruction estimate ------------------------------------- *)

(* A static per-element work estimate for a kernel-site function that,
   unlike a flat instruction count, sees through loops and calls: loop
   bodies are weighted by an assumed trip count and callee bodies are
   inlined (memoized, depth-capped against recursion). The placement
   calibrator uses this for worker chains, where the body frequently
   *is* a loop (matmul's dot product, nbody's force accumulation) and
   a flat count would underestimate the bytecode/native cost by the
   trip count, inverting device orderings. *)
let loop_weight = 32
let max_inline_depth = 8

let weighted_insns (p : Ir.program) (fn_key : string) : int =
  let memo = Hashtbl.create 16 in
  let rec cost_fn depth key =
    if depth > max_inline_depth then 16
    else
      match Hashtbl.find_opt memo key with
      | Some c -> c
      | None ->
        let c =
          match Ir.find_func p key with
          | None -> 16 (* intrinsic or unknown: one dispatch *)
          | Some f ->
            (* Guard the memo against recursion before walking. *)
            Hashtbl.replace memo key 16;
            cost_block depth f.Ir.fn_body
        in
        Hashtbl.replace memo key c;
        c
  and cost_rhs depth = function
    | Ir.R_call (key, ops) -> 1 + List.length ops + cost_fn (depth + 1) key
    | Ir.R_map m ->
      (* nested map: charge body times the loop weight *)
      (loop_weight * cost_fn (depth + 1) m.Ir.map_fn) + 4
    | Ir.R_reduce r -> (loop_weight * cost_fn (depth + 1) r.Ir.red_fn) + 4
    | Ir.R_op _ | Ir.R_unop _ | Ir.R_binop _ | Ir.R_alen _ | Ir.R_aload _
    | Ir.R_newarr _ | Ir.R_freeze _ | Ir.R_newobj _ | Ir.R_field _
    | Ir.R_mkgraph _ ->
      2
  and cost_instr depth = function
    | Ir.I_let (_, r) | Ir.I_set (_, r) | Ir.I_do r -> 2 + cost_rhs depth r
    | Ir.I_astore _ | Ir.I_setfield _ -> 3
    | Ir.I_return _ -> 1
    | Ir.I_run_graph _ -> 2
    | Ir.I_if (_, a, b) ->
      2 + max (cost_block depth a) (cost_block depth b)
    | Ir.I_while (cond, _, body) ->
      loop_weight * (cost_block depth cond + cost_block depth body + 2)
  and cost_block depth b =
    List.fold_left (fun acc i -> acc + cost_instr depth i) 0 b
  in
  max 1 (cost_fn 0 fn_key)

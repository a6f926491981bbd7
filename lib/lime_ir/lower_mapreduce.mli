(** Lowering map/reduce kernel sites into chunked scatter/worker/gather
    task graphs — the pass that puts the data-parallel `@` operators on
    the same placement/scheduling/fault substrate as every other task
    graph. See [docs/LOWERING.md]. *)

type kind = K_map of Ir.map_site | K_reduce of Ir.reduce_site

type lowered = {
  lw_uid : string;  (** the kernel site's UID — also the worker UID *)
  lw_kind : kind;
  lw_fn : string;  (** the per-element function key *)
  lw_elem_ty : Ir.ty;  (** result element type *)
  lw_worker : Ir.filter_info;
      (** the replicated worker filter; its UID equals the site UID so
          per-site artifacts (GPU kernels, native binaries) substitute
          for it directly *)
}

val lower_program : Ir.program -> lowered Ir.String_map.t
(** Every kernel site in the program, lowered, keyed by site UID. *)

val worker_filter : kind -> Ir.filter_info

val chunks_for : ?override:int -> ?assoc:bool -> n:int -> kind -> int
(** How many chunks to scatter an [n]-element stream into. Maps split
    into up to 4 chunks of at least 1024 elements; reduces default to
    1 chunk (chunked combining reassociates the fold), unless [assoc]
    says the algebraic analysis proved the combiner associative and
    commutative — then a reduce follows the map policy and the partial
    folds combine as a tree, bit-identical by the reassociation
    contract (docs/ANALYSIS.md). [override] forces a count, clamped to
    [\[1, max n 1\]]. *)

val split_bounds : n:int -> chunks:int -> (int * int) list
(** Balanced contiguous [(offset, length)] chunk bounds covering
    [0, n) exactly; lengths differ by at most one. *)

val kind_name : kind -> string

val weighted_insns : Ir.program -> string -> int
(** Loop- and call-aware static instruction estimate for one
    per-element application of a kernel-site function (loops weighted
    by an assumed trip count, callees inlined with memoization). *)

(* The four workloads, the seeded request sequences that drive them, and
   the oracle their outputs are checked against.

   The seed chooses only the order of requests and the arrival times.
   Program inputs always come from [Workloads.args], so a request for
   (program, size) is the same computation in every run. *)

module Substitute = Runtime.Substitute
module Job = Serve.Job
module I = Lime_ir.Interp

type pair = { wl : Workloads.t; size : int }

let pair_name p = Printf.sprintf "%s@%d" p.wl.Workloads.name p.size

type closed = {
  policy : Substitute.policy;
  pairs : pair array;
  traced_prefix : int;  (** requests replayed by the traced run *)
}

type serve = {
  mix : pair array;
  tenants : (string * int) list;  (** name, WDRR weight *)
  jobs : int;  (** jobs in one load *)
  traced_jobs : int;
  nominal_jps : float;  (** aggregate arrival rate of the measured drains *)
}

type kind = Closed of closed | Serve of serve

type t = { name : string; programs : Workloads.t list; kind : kind }

let pairs_of programs ~size =
  Array.of_list
    (List.concat_map
       (fun w -> List.map (fun s -> { wl = w; size = s }) (size w))
       programs)

let gpu_map_programs =
  List.map Workloads.find
    [
      "saxpy"; "dotproduct"; "matmul"; "conv2d"; "nbody"; "blackscholes";
      "mandelbrot"; "sumsq";
    ]

let stream_programs =
  List.map Workloads.find [ "bitflip"; "dsp_chain"; "prefix_sum"; "fir4"; "crc8" ]

(* default_size / f, f in {1,2,4,8,16}: the paper's kernels from full
   size down to where launch and boundary costs dominate. *)
let kernel_pairs =
  pairs_of gpu_map_programs ~size:(fun w ->
      List.map (fun f -> w.Workloads.default_size / f) [ 1; 2; 4; 8; 16 ])

(* Stream pipelines are cheap per element; 4 * default_size / f keeps
   each request near a millisecond so fixed per-call work dominates. *)
let stream_pairs =
  pairs_of stream_programs ~size:(fun w ->
      List.map (fun f -> 4 * w.Workloads.default_size / f) [ 1; 2; 4; 8 ])

let serve_programs =
  [
    ("saxpy", 1024); ("sumsq", 4096); ("dsp_chain", 512); ("fir4", 512);
    ("crc8", 256); ("blackscholes", 256); ("bitflip", 256);
  ]

let serve_mix =
  Array.of_list
    (List.concat_map
       (fun (name, size) ->
         let w = Workloads.find name in
         [ { wl = w; size }; { wl = w; size = 4 * size } ])
       serve_programs)

(* The traced prefixes are small because tracing keeps every event in
   memory: a stream pipeline emits about nine events per element. *)
let all =
  [
    {
      name = "jvm_kernels";
      programs = gpu_map_programs;
      kind =
        Closed
          {
            policy = Substitute.Bytecode_only;
            pairs = kernel_pairs;
            traced_prefix = 100;
          };
    };
    {
      name = "gpu_offload";
      programs = gpu_map_programs;
      kind =
        Closed
          {
            policy = Substitute.Prefer_accelerators;
            pairs = kernel_pairs;
            traced_prefix = 100;
          };
    };
    {
      name = "stream_pipelines";
      programs = stream_programs;
      kind =
        Closed
          {
            policy = Substitute.Prefer_accelerators;
            pairs = stream_pairs;
            traced_prefix = 40;
          };
    };
    {
      name = "serve_mix";
      programs = List.map (fun (n, _) -> Workloads.find n) serve_programs;
      kind =
        Serve
          {
            mix = serve_mix;
            tenants = [ ("a", 3); ("b", 2); ("c", 1); ("d", 1) ];
            (* four whole rounds over the 56 (program, size, tenant)
               combinations, so every seed drains the same jobs; a drain
               takes under a second of host time, so a run's median is
               over a dozen or more drains *)
            jobs = 224;
            traced_jobs = 40;
            nominal_jps = 50_000.0;
          };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ---------- seeded sequences ---------- *)

(* splitmix64, so that small consecutive seeds give unrelated xorshift
   streams *)
let rng_of_seed seed =
  let open Int64 in
  let z = add (of_int seed) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  Support.Rng.create ~seed:(logxor z (shift_right_logical z 31)) ()

(* Requests come in rounds: each round is a seeded shuffle of the whole
   pool. Every element is requested equally often, so two seeds differ
   in order only, and a run's medians do not depend on which heavy
   requests the seed happened to draw. *)
type 'a rounds = {
  rng : Support.Rng.t;
  pool : 'a array;
  mutable order : int array;
  mutable pos : int;
}

let rounds ~seed pool =
  { rng = rng_of_seed seed; pool; order = [||]; pos = 0 }

let next r =
  if r.pos >= Array.length r.order then begin
    let n = Array.length r.pool in
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Support.Rng.int r.rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    r.order <- a;
    r.pos <- 0
  end;
  let x = r.pool.(r.order.(r.pos)) in
  r.pos <- r.pos + 1;
  x

(* One load of [s.jobs] jobs arriving as a Poisson process at the
   nominal rate. Program, size and tenant are drawn in rounds over
   their product, like the closed-loop requests. *)
let serve_load ~seed s =
  let combos =
    Array.of_list
      (List.concat_map
         (fun (tenant, _) ->
           Array.to_list (Array.map (fun p -> (tenant, p)) s.mix))
         s.tenants)
  in
  let r = rounds ~seed combos in
  let t = ref 0.0 in
  let jobs =
    List.init s.jobs (fun i ->
        let tenant, p = next r in
        let u = Support.Rng.float r.rng in
        t := !t +. (-.log (1.0 -. u) /. s.nominal_jps *. 1e9);
        {
          Job.j_id = i;
          j_tenant = tenant;
          j_workload = p.wl.Workloads.name;
          j_size = p.size;
          j_arrival_ns = !t;
          j_class = Job.Batch;
        })
  in
  {
    Job.l_tenants =
      List.map
        (fun (name, weight) ->
          { Job.t_name = name; t_weight = weight; t_quota = max_int })
        s.tenants;
    l_jobs = jobs;
  }

(* The same jobs arriving [rate / nominal] times as fast. *)
let at_rate s (load : Job.load) rate =
  let k = s.nominal_jps /. rate in
  {
    load with
    Job.l_jobs =
      List.map
        (fun j -> { j with Job.j_arrival_ns = j.Job.j_arrival_ns *. k })
        load.Job.l_jobs;
  }

let first n (load : Job.load) =
  { load with Job.l_jobs = List.filteri (fun i _ -> i < n) load.Job.l_jobs }

(* ---------- oracle ---------- *)

(* The reference result of every (program, size) a run can request:
   [Lime_ir.Interp] over the unoptimized IR, so neither the optimizer
   nor any backend is shared with the path under test. *)
type oracle = {
  progs : (string, Lime_ir.Ir.program) Hashtbl.t;
  refs : (string * int, I.v) Hashtbl.t;
}

let oracle () = { progs = Hashtbl.create 16; refs = Hashtbl.create 64 }

let expected o p =
  let w = p.wl in
  let key = (w.Workloads.name, p.size) in
  match Hashtbl.find_opt o.refs key with
  | Some v -> v
  | None ->
      let prog =
        match Hashtbl.find_opt o.progs w.Workloads.name with
        | Some prog -> prog
        | None ->
            let prog =
              Lime_syntax.Parser.parse ~file:(w.Workloads.name ^ ".lime")
                w.Workloads.source
              |> Lime_types.Typecheck.check |> Lime_ir.Lower.lower
            in
            Hashtbl.add o.progs w.Workloads.name prog;
            prog
      in
      let v = I.call prog w.Workloads.entry (w.Workloads.args ~size:p.size) in
      Hashtbl.add o.refs key v;
      v

(* Bit-exact agreement: [Wire.Value.equal] compares floats with [=]
   (NaN equal to NaN), never with a tolerance. *)
let agrees o p (v : I.v) =
  match (expected o p, v) with
  | I.Prim a, I.Prim b -> Wire.Value.equal a b
  | _ -> false

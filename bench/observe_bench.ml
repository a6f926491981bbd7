(* Observability regression gate.

   Two claims keep the introspection layer honest, both checked here
   and recorded in BENCH_obs.json (path overridable as argv 1):

   1. Tracing off costs (almost) nothing. Every emission function —
      [with_span], [begin_span]/[end_span], [instant] and [counter] —
      first checks whether a sink is installed. With none installed,
      each is called [iters] times: none may allocate a single minor
      word, and the fastest of [reps] loops must cost under
      [max_site_ns] host ns per call. Neither check depends on how
      many events a run emits or on how long the rest of the run
      takes, so a run that emits fewer events cannot pass by
      shrinking its input.

   2. Attribution covers the run. On dsp_chain the deepest-owner
      partition must classify at least 99% of wall time into the named
      buckets (compute / marshal / sched / backoff) — an "other"
      share above 1% means spans have drifted out of the taxonomy.

   `make check` runs this as the observability gate. *)

module Trace = Support.Trace
module Compiler = Liquid_metal.Compiler
module Exec = Runtime.Exec
module Substitute = Runtime.Substitute
module Report = Observe.Report

(* On a shared 2-core host, fastest-of-5 readings of the four sites
   ranged from 2.8 to 7.3 ns per call over eleven runs; the bound is
   about twice the slowest. An [instant] that read the clock when
   disabled read 48-54 ns. *)
let max_site_ns = 15.0
let min_coverage = 0.99
let iters = 1_000_000
let reps = 5

(* Each loop makes [iters] iterations of [calls] calls of disabled
   emission functions, with constant arguments, so any word the loop
   allocates is theirs. *)
let sites =
  [
    ( "with_span",
      1,
      fun () ->
        for _ = 1 to iters do
          ignore
            (Sys.opaque_identity
               (Trace.with_span ~cat:"launch" "bench" (fun () -> 0)))
        done );
    ( "begin_span/end_span",
      2,
      fun () ->
        for _ = 1 to iters do
          Trace.end_span (Trace.begin_span ~cat:"launch" "bench")
        done );
    ( "instant",
      1,
      fun () ->
        for _ = 1 to iters do
          Trace.instant ~cat:"sched" "bench"
        done );
    ( "counter",
      1,
      fun () ->
        for _ = 1 to iters do
          Trace.counter "fifo:bench" [ "occupancy", 1.0 ]
        done );
  ]

(* Minor words and wall ns of one call of [loop]. *)
let measure loop =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  loop ();
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  w1 -. w0, 1e9 *. (t1 -. t0)

(* The words the measurement itself allocates, taken around an empty
   loop and subtracted from every site's reading. *)
let empty_loop () =
  for _ = 1 to iters do
    ignore (Sys.opaque_identity ())
  done

let () =
  let out_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_obs.json"
  in
  Trace.set_sink Trace.null;

  (* the disabled emission path, one site at a time: the fastest of
     [reps] loops, and the most words any loop allocated *)
  let base_words = fst (measure empty_loop) in
  let readings =
    List.map
      (fun (name, calls, loop) ->
        loop ();
        let words = ref 0.0 and best_ns = ref infinity in
        for _ = 1 to reps do
          let w, ns = measure loop in
          words := Float.max !words (w -. base_words);
          best_ns := Float.min !best_ns ns
        done;
        name, !words, !best_ns /. float_of_int (calls * iters))
      sites
  in

  (* one traced run: how many events it emits, and where the wall time
     goes *)
  let w = Workloads.find "dsp_chain" in
  let size = w.Workloads.default_size in
  let c = Compiler.compile w.Workloads.source in
  let run_once () =
    let engine = Compiler.engine ~policy:Substitute.Prefer_accelerators c in
    ignore (Exec.call engine w.Workloads.entry (w.Workloads.args ~size))
  in
  run_once ();
  let sink = Trace.ring () in
  Trace.set_sink sink;
  run_once ();
  Trace.set_sink Trace.null;
  let events = Trace.event_count sink + Trace.dropped sink in
  let r = Report.of_sink sink in
  let wall = r.Report.rp_wall_us in
  let a = r.Report.rp_attr in
  let covered =
    a.Report.at_compute +. a.Report.at_marshal +. a.Report.at_sched
    +. a.Report.at_backoff
  in
  let coverage = if wall > 0.0 then covered /. wall else 0.0 in

  List.iter
    (fun (name, words, ns) ->
      Printf.printf
        "disabled %-20s %5.2f ns/call, %.0f minor word(s) over %d iterations \
         (gate < %.1f ns, 0 words)\n"
        name ns words iters max_site_ns)
    readings;
  Printf.printf "traced dsp_chain:   %d event(s)\n" events;
  Printf.printf
    "attribution:       %.2f%% covered (compute %.1f + marshal %.1f + sched \
     %.1f + backoff %.1f of %.1f us; gate >= %.0f%%)\n"
    (100.0 *. coverage) a.Report.at_compute a.Report.at_marshal
    a.Report.at_sched a.Report.at_backoff wall (100.0 *. min_coverage);

  let oc = open_out out_path in
  Printf.fprintf oc
    "{\"workload\":\"dsp_chain\",\"size\":%d,\"disabled_sites\":[%s],\"events\":%d,\"coverage\":%.5f,\"attribution_us\":{\"compute\":%.3f,\"marshal\":%.3f,\"sched\":%.3f,\"backoff\":%.3f,\"other\":%.3f},\"wall_us\":%.3f,\"gates\":{\"max_site_ns\":%.1f,\"max_site_words\":0,\"min_coverage\":%.2f}}\n"
    size
    (String.concat ","
       (List.map
          (fun (name, words, ns) ->
            Printf.sprintf "{\"site\":%S,\"ns_per_call\":%.3f,\"minor_words\":%.0f}"
              name ns words)
          readings))
    events coverage a.Report.at_compute a.Report.at_marshal a.Report.at_sched
    a.Report.at_backoff a.Report.at_other wall max_site_ns min_coverage;
  close_out oc;
  Printf.printf "wrote %s\n" out_path;

  let failed = ref false in
  List.iter
    (fun (name, words, ns) ->
      if words > 0.0 then begin
        Printf.eprintf "FAIL: disabled %s allocated %.0f minor word(s)\n" name
          words;
        failed := true
      end;
      if ns >= max_site_ns then begin
        Printf.eprintf "FAIL: disabled %s costs %.2f ns/call >= %.1f\n" name ns
          max_site_ns;
        failed := true
      end)
    readings;
  if coverage < min_coverage then begin
    Printf.eprintf "FAIL: attribution coverage %.2f%% < %.0f%%\n"
      (100.0 *. coverage) (100.0 *. min_coverage);
    failed := true
  end;
  if !failed then exit 1

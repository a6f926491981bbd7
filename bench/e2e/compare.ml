(* [e2e.exe compare A/*.json -- B/*.json]: a verdict for every
   (end-to-end metric, workload) between two sets of saved runs.

   A metric BENCHMARK.json bounds is judged on medians: worse when B's
   median is worse than A's by more than the bound, better when it is
   better by more, unresolved when either side's quartile spread
   exceeds the bound. Modeled, virtual and count metrics are exact for
   a given seed: they must agree to a relative 1e-9, and any change
   is better or worse by its direction. *)

module C = Catalog

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let median xs = Support.Stats.percentile xs 0.5

(* The first and third quartiles as Python's statistics.quantiles(xs,
   n=4) gives them (its default "exclusive" method), so these spreads
   match a Python analysis of the same result files. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

let spread xs =
  let q1, q3 = quartiles xs and md = median xs in
  if q3 = q1 then 0.0 else if md = 0.0 then infinity else (q3 -. q1) /. Float.abs md

(* positive: B is worse than A *)
let worsening (mt : C.metric) a b =
  let d = if a = 0.0 then b -. a else (b -. a) /. Float.abs a in
  match mt.C.better with C.Lower -> d | C.Higher -> -.d

let bounded mt ~bound a b =
  if spread a > bound || spread b > bound then Unresolved
  else
    let w = worsening mt (median a) (median b) in
    if w > bound then Worse else if w < -.bound then Better else Same

let exact mt a b =
  let close x y =
    Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
  in
  let agree = function [] -> true | x :: xs -> List.for_all (close x) xs in
  if not (agree a && agree b) then Unresolved
  else
    let x = List.hd a and y = List.hd b in
    if close x y then Same else if worsening mt x y > 0.0 then Worse else Better

let load files =
  List.filter_map
    (fun f ->
      if Filename.check_suffix f ".trace.json" then None
      else
        try Some (fst (C.read_result f))
        with Failure m | Sys_error m ->
          Printf.eprintf "compare: skipping %s: %s\n" f m;
          None)
    files

let run (spec : C.spec) files_a files_b =
  let a = load files_a and b = load files_b in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.C.r_workload) (a @ b))
  in
  let values side w name =
    List.filter_map
      (fun r ->
        if r.C.r_workload = w then List.assoc_opt name r.C.r_metrics else None)
      side
  in
  let t =
    Support.Stats.Table.create
      ~columns:
        [ "workload"; "metric"; "A median"; "B median"; "change"; "spread A";
          "spread B"; "bound"; "verdict" ]
  in
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (mt : C.metric) ->
          let va = values a w mt.C.name and vb = values b w mt.C.name in
          let bound = List.assoc_opt mt.C.name spec.C.sp_end_to_end in
          let judged =
            match (va, vb, bound, mt.C.clock) with
            | [], _, _, _ | _, [], _, _ -> None
            | _, _, Some bound, _ ->
                Some (bounded mt ~bound va vb, Printf.sprintf "%g" bound)
            | _, _, None, (C.Modeled | C.Virtual | C.Count) ->
                Some (exact mt va vb, "exact")
            | _, _, None, C.Host -> None
          in
          Option.iter
            (fun (v, bound) ->
              if v = Worse then incr worse;
              let ma = median va and mb = median vb in
              Support.Stats.Table.add_row t
                [
                  w; mt.C.name; Printf.sprintf "%.6g" ma; Printf.sprintf "%.6g" mb;
                  Printf.sprintf "%+.2f%%" (100.0 *. (if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma));
                  Printf.sprintf "%.2f%%" (100.0 *. spread va);
                  Printf.sprintf "%.2f%%" (100.0 *. spread vb);
                  bound; verdict_name v;
                ])
            judged)
        (List.filter (fun (mt : C.metric) -> mt.C.end_to_end) C.all))
    workloads;
  Printf.printf "A: %d run(s), B: %d run(s)\n%s" (List.length a) (List.length b)
    (Support.Stats.Table.render t);
  if !worse > 0 then begin
    Printf.printf "%d metric(s) worse\n" !worse;
    1
  end
  else 0

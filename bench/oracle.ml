(* The reference result of a workload: [Lime_ir.Interp] over the
   unoptimized IR, so neither the optimizer nor any backend is shared
   with the path under test. *)
let expected (w : Workloads.t) ~size =
  let prog =
    Lime_syntax.Parser.parse ~file:(w.Workloads.name ^ ".lime")
      w.Workloads.source
    |> Lime_types.Typecheck.check |> Lime_ir.Lower.lower
  in
  Lime_ir.Interp.call prog w.Workloads.entry (w.Workloads.args ~size)

(* Bit-exact agreement: [Wire.Value.equal] compares floats with [=]
   (NaN equal to NaN), never with a tolerance. *)
let agrees (a : Lime_ir.Interp.v) (b : Lime_ir.Interp.v) =
  match a, b with
  | Lime_ir.Interp.Prim x, Lime_ir.Interp.Prim y -> Wire.Value.equal x y
  | _ -> false

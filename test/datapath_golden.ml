(* Golden digests of every FPGA datapath.

   For every FPGA artifact of every workload and of every Lime program
   given on the command line (compiled with fusion on, so both the
   per-stage and the fused artifacts), each stage module's [result]
   expression and each [field_k <=] next-value expression is expanded:
   every wire the module declares, except its input alias
   [in_data_typed], is replaced by its definition, recursively, until
   only ports, registers and constants remain. A line records each
   expanded expression's length and MD5.

   The digests therefore pin what each datapath computes, and not how
   the text is laid out: which values it names as wires, in what order,
   under what names. A diff against test/datapath.baseline (`dune
   runtest`) is a change to the hardware the FPGA backend describes,
   not a layout change. *)

module Artifact = Runtime.Artifact

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(* [expand defs text]: [text] with every identifier bound in [defs]
   replaced by its expanded definition. *)
let expand defs =
  let memo = Hashtbl.create 64 in
  let rec expr text =
    let n = String.length text in
    let b = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if is_ident_char text.[!i] then (
        let j = ref !i in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        let tok = String.sub text !i (!j - !i) in
        Buffer.add_string b
          (if Hashtbl.mem defs tok then name tok else tok);
        i := !j)
      else (
        Buffer.add_char b text.[!i];
        incr i)
    done;
    Buffer.contents b
  and name tok =
    match Hashtbl.find_opt memo tok with
    | Some s -> s
    | None ->
      let s = expr (Hashtbl.find defs tok) in
      Hashtbl.add memo tok s;
      s
  in
  expr

(* ["wire [w:0] NAME = EXPR;"] and ["field_K <= EXPR;"] *)
let wire_def line =
  Scanf.sscanf_opt line "wire [%_d:0] %s = %[^;];%!" (fun name e -> name, e)

let field_commit line =
  Scanf.sscanf_opt line "field_%d <= %[^;];%!" (fun k e ->
      Printf.sprintf "field_%d" k, e)

let print_artifact program uid text =
  let module_name = ref "" in
  let defs = Hashtbl.create 64 in
  let fields = ref [] in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      match Scanf.sscanf_opt line "module %s" Fun.id with
      | Some name ->
        module_name := name;
        Hashtbl.reset defs;
        fields := []
      | None when line = "endmodule" && Hashtbl.mem defs "result" ->
        let expand = expand defs in
        List.iter
          (fun (what, e) ->
            let e = expand e in
            Printf.printf "%s %s %s %s %d %s\n" program uid !module_name what
              (String.length e)
              (Digest.to_hex (Digest.string e)))
          (("result", "result") :: List.rev !fields)
      | None -> (
        match wire_def line, field_commit line with
        | Some (name, e), _ when name <> "in_data_typed" ->
          Hashtbl.replace defs name e
        | _, Some commit -> fields := commit :: !fields
        | _ -> ()))
    (String.split_on_char '\n' text)

let print_program program source =
  let c = Liquid_metal.Compiler.compile ~file:(program ^ ".lime") source in
  List.iter
    (fun (e : Artifact.manifest_entry) ->
      if e.me_device = Artifact.Fpga then
        match
          Runtime.Store.find_on c.store ~uid:e.me_uid ~device:e.me_device
        with
        | Some (Artifact.Fpga_module f) ->
          print_artifact program f.fa_uid f.fa_verilog
        | _ -> ())
    (Liquid_metal.Compiler.manifest c).entries

let () =
  List.iter
    (fun (w : Workloads.t) -> print_program w.name w.source)
    Workloads.all;
  List.iter
    (fun path ->
      print_program
        (Filename.remove_extension (Filename.basename path))
        (In_channel.with_open_bin path In_channel.input_all))
    (List.sort compare (List.tl (Array.to_list Sys.argv)))

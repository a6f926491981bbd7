module Ir = Lime_ir.Ir
module I = Lime_ir.Interp
module V = Wire.Value

type stats = {
  cycles : int;
  items : int;
  stalls : int;
  max_fifo_occupancy : int;
}

exception Simulation_error of string

let clock_ns = 4

let fail fmt = Format.kasprintf (fun s -> raise (Simulation_error s)) fmt

(* A hardware FIFO, as a fixed ring of [depth] slots. Each slot holds
   a value and the cycle it becomes visible at the head, so a push
   allocates nothing. A stage's input FIFO has a registered output:
   an element written at cycle [t] first appears at the output at
   cycle [t + 1] — "the generated logic uses a FIFO which produces a
   value on the next rising edge of the clock" (paper section 5). The
   pipeline registers of a fully pipelined stage are the same ring,
   with each result visible once the stage's latency has elapsed. *)
module Fifo = struct
  type t = {
    values : V.t array;
    visible : int array;
    mutable head : int;
    mutable length : int;
  }

  let create depth =
    let depth = max depth 0 in
    {
      values = Array.make depth V.Unit;
      visible = Array.make depth 0;
      head = 0;
      length = 0;
    }

  let has_space t = t.length < Array.length t.values

  let push t ~visible v =
    if not (has_space t) then invalid_arg "Fifo.push: full";
    let depth = Array.length t.values in
    let i = t.head + t.length in
    let i = if i >= depth then i - depth else i in
    t.values.(i) <- v;
    t.visible.(i) <- visible;
    t.length <- t.length + 1

  (* The head element is visible at [cycle]. *)
  let ready t ~cycle = t.length > 0 && t.visible.(t.head) <= cycle

  let pop t =
    let v = t.values.(t.head) in
    t.head <- (if t.head + 1 = Array.length t.values then 0 else t.head + 1);
    t.length <- t.length - 1;
    v
end

(* The unpipelined stage FSM: read (1 cycle), compute (latency
   cycles), publish (1 cycle). *)
type phase = Idle | Computing | Publishing

type stage_state = {
  stage : Netlist.stage;
  input : Fifo.t;
  down : Fifo.t;  (* the next stage's input FIFO, or the sink's *)
  mutable phase : phase;
  mutable latched : V.t;
      (* the input while [Computing], the result while [Publishing] *)
  mutable remaining : int;  (* compute cycles left while [Computing] *)
  inflight : Fifo.t;
      (* pipelined mode only: the [st_latency + 1] pipeline registers *)
  (* waveform vars (None when no VCD requested) *)
  w_in_ready : Vcd.var option;
  w_in_data : Vcd.var option;
  w_out_ready : Vcd.var option;
  w_out_data : Vcd.var option;
}

let interp prog (st : Netlist.stage) (x : V.t) : V.t =
  let args =
    match st.st_state with
    | Some receiver -> [ receiver; I.Prim x ]
    | None -> [ I.Prim x ]
  in
  match I.call prog st.st_fn args with
  | I.Prim v -> v
  | v -> fail "filter %s produced a non-value result %a" st.st_fn I.pp v

let run ?vcd ?(max_cycles = 10_000_000) ~eval
    (pl : Netlist.pipeline) (inputs : V.t list) : V.t list * stats =
  (* Fused pipelines are fault-checked by the engine's launch prelude
     under their pre-fusion alias names — checking the fused uid here
     too would double-charge one launch. *)
  if not (Lime_ir.Fuse.is_fused_uid pl.Netlist.pl_name) then
    Support.Fault.check ~device:"fpga" ~segment:pl.Netlist.pl_name;
  (* Device-model telemetry: one span (category ["fpga"]) per RTL
     simulation, closed with cycle/item/stall counts. *)
  let traced f =
    if not (Support.Trace.enabled ()) then f ()
    else
      let sp = Support.Trace.begin_span ~cat:"fpga" pl.Netlist.pl_name in
      match f () with
      | (_, (st : stats)) as r ->
        Support.Trace.end_span
          ~args:
            [
              "cycles", Support.Trace.Int st.cycles;
              "items", Support.Trace.Int st.items;
              "stalls", Support.Trace.Int st.stalls;
            ]
          sp;
        r
      | exception e ->
        Support.Trace.end_span sp;
        raise e
  in
  traced @@ fun () ->
  let mkvar name width =
    Option.map (fun v -> Vcd.add_var v ~name ~width) vcd
  in
  let clk_var = mkvar "clk" 1 in
  let depth = pl.Netlist.pl_fifo_depth in
  let sink = Fifo.create depth in
  let specs = Array.of_list pl.Netlist.pl_stages in
  let n = Array.length specs in
  let fifos = Array.init n (fun _ -> Fifo.create depth) in
  let stages =
    Array.mapi
      (fun i (st : Netlist.stage) ->
        (* declared output side first: recorded waveforms pin the
           identifier codes *)
        let w_out_data =
          mkvar (st.st_name ^ "_outData") (Netlist.width_of_ty st.st_output_ty)
        in
        let w_out_ready = mkvar (st.st_name ^ "_outReady") 1 in
        let w_in_data =
          mkvar (st.st_name ^ "_inData") (Netlist.width_of_ty st.st_input_ty)
        in
        let w_in_ready = mkvar (st.st_name ^ "_inReady") 1 in
        {
          stage = st;
          input = fifos.(i);
          down = (if i + 1 < n then fifos.(i + 1) else sink);
          phase = Idle;
          latched = V.Unit;
          remaining = 0;
          inflight =
            Fifo.create
              (if pl.Netlist.pl_pipelined then st.st_latency + 1 else 0);
          w_in_ready;
          w_in_data;
          w_out_ready;
          w_out_data;
        })
      specs
  in
  (* with no stage the source has nowhere to write, and the guard
     below reports the wedge *)
  let entry = if n > 0 then fifos.(0) else Fifo.create 0 in
  Option.iter Vcd.finalize_header vcd;
  let inputs = Array.of_list inputs in
  let total = Array.length inputs in
  let outputs = Array.make total V.Unit in
  let fed = ref 0 in
  let drained = ref 0 in
  let stalls = ref 0 in
  let max_occ = ref 0 in
  let cycle = ref 0 in
  let vset_at time var v =
    match vcd, var with
    | Some w, Some var -> Vcd.set w ~time_ns:time var v
    | _, _ -> ()
  in
  let vset var v = vset_at (!cycle * clock_ns) var v in
  (* Without a VCD the loop skips the per-cycle waveform writes, and a
     data port's encoding is computed only when it is recorded. *)
  let waves = Option.is_some vcd in
  let vdata var ty x =
    match var with
    | Some _ -> vset var (Netlist.bits_of_value ty x)
    | None -> ()
  in
  let occupancy (f : Fifo.t) =
    if f.length > !max_occ then max_occ := f.length
  in
  (* Quiescent once no input is pending and the sink has drained as
     many outputs as the source fed: every stage turns one input into
     one output, so every stage is then idle and every FIFO empty. *)
  while !fed < total || !drained < !fed do
    if !cycle > max_cycles then fail "pipeline wedged after %d cycles" max_cycles;
    (* rising edge *)
    if waves then vset clk_var 1;
    (* Sink drains first so a full FIFO frees within the cycle order
       downstream-to-upstream (registered visibility still enforces the
       one-cycle FIFO delay). *)
    if Fifo.ready sink ~cycle:!cycle then begin
      outputs.(!drained) <- Fifo.pop sink;
      incr drained
    end;
    for i = 0 to n - 1 do
      let s = stages.(i) in
      (* default waveform levels each cycle *)
      if waves then begin
        vset s.w_in_ready 0;
        vset s.w_out_ready 0
      end;
      if pl.Netlist.pl_pipelined then begin
        (* Fully pipelined stage (initiation interval 1): publish the
           oldest in-flight result whose latency has elapsed, then
           accept one new element into the pipeline registers. The
           register file holds at most [st_latency + 1] values;
           downstream backpressure stalls acceptance. *)
        if Fifo.ready s.inflight ~cycle:!cycle then begin
          if Fifo.has_space s.down then begin
            let y = Fifo.pop s.inflight in
            Fifo.push s.down ~visible:(!cycle + 1) y;
            vset s.w_out_ready 1;
            vdata s.w_out_data s.stage.st_output_ty y
          end
          else incr stalls
        end;
        if Fifo.has_space s.inflight && Fifo.ready s.input ~cycle:!cycle
        then begin
          let x = Fifo.pop s.input in
          vset s.w_in_ready 1;
          vdata s.w_in_data s.stage.st_input_ty x;
          Fifo.push s.inflight
            ~visible:(!cycle + s.stage.st_latency)
            (eval s.stage x)
        end
      end
      else
        match s.phase with
        | Publishing ->
          if Fifo.has_space s.down then begin
            Fifo.push s.down ~visible:(!cycle + 1) s.latched;
            vset s.w_out_ready 1;
            vdata s.w_out_data s.stage.st_output_ty s.latched;
            s.phase <- Idle
          end
          else incr stalls
        | Computing ->
          if s.remaining > 1 then s.remaining <- s.remaining - 1
          else begin
            s.latched <- eval s.stage s.latched;
            s.phase <- Publishing
          end
        | Idle ->
          if Fifo.ready s.input ~cycle:!cycle then begin
            let x = Fifo.pop s.input in
            vset s.w_in_ready 1;
            vdata s.w_in_data s.stage.st_input_ty x;
            s.latched <- x;
            s.remaining <- s.stage.st_latency;
            s.phase <- Computing
          end
    done;
    (* Source feeds the first stage, one element per cycle. *)
    if !fed < total && Fifo.has_space entry then begin
      Fifo.push entry ~visible:(!cycle + 1) inputs.(!fed);
      incr fed
    end;
    for i = 0 to n - 1 do
      occupancy stages.(i).input
    done;
    occupancy sink;
    (* falling edge *)
    if waves then vset_at ((!cycle * clock_ns) + (clock_ns / 2)) clk_var 0;
    incr cycle
  done;
  ( Array.to_list outputs,
    {
      cycles = !cycle;
      items = !drained;
      stalls = !stalls;
      max_fifo_occupancy = !max_occ;
    } )

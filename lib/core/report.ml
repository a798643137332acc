(** Human-readable exploration reports: everything a designer needs to
    review the search's decision — the saturation analysis, the search
    trace with per-step verdicts, the selected design's estimates and
    resource breakdown, the data layout, and the comparison against the
    no-unrolling baseline. Rendered as markdown. *)

open Ir

type t = {
  context : Design.context;
  result : Search.result;
  baseline : Design.point;
}

let build (ctx : Design.context) : t =
  let result = Search.run ctx in
  let baseline =
    Design.evaluate ctx (Design.base_config ctx (Design.ubase ctx))
  in
  { context = ctx; result; baseline }

let speedup (r : t) =
  float_of_int (Design.cycles r.baseline)
  /. float_of_int (Design.cycles r.result.Search.selected)

let pp_vector = Design.pp_vector

let render fmt (r : t) =
  let ctx = r.context in
  let sel = r.result.Search.selected in
  let device = ctx.Design.env.profile.Hls.Estimate.device in
  let mem = ctx.Design.env.profile.Hls.Estimate.mem in
  Format.fprintf fmt "# Design space exploration: %s@.@."
    ctx.Design.env.source.Ast.k_name;
  Format.fprintf fmt
    "- device: %s (%d slices, %d memories, %.0f ns clock)@.- memory model: %s \
     (read %d / write %d cycles)@.- capacity budget: %d slices@.@."
    device.Hls.Device.name device.Hls.Device.capacity_slices
    device.Hls.Device.num_memories device.Hls.Device.clock_ns
    (Hls.Memory_model.name mem)
    mem.Hls.Memory_model.read_latency mem.Hls.Memory_model.write_latency
    ctx.Design.capacity;
  Format.fprintf fmt "## Input@.@.```c@.%s@.```@.@."
    (Pretty.kernel_to_string ctx.Design.env.source);
  let sat = r.result.Search.sat in
  Format.fprintf fmt "## Saturation analysis@.@.";
  Format.fprintf fmt
    "- uniformly generated sets after replacement: R = %d reads, W = %d \
     writes@.- Psat = lcm(gcd(R, W), memories) = %d@.- loops eligible for \
     unrolling: %s@.- initial point Uinit = %a@.@."
    sat.Saturation.r sat.Saturation.w sat.Saturation.psat
    (String.concat ", " sat.Saturation.eligible)
    pp_vector r.result.Search.uinit;
  Format.fprintf fmt "## Search trace@.@.";
  Format.fprintf fmt "| design | cycles | slices | balance | verdict |@.";
  Format.fprintf fmt "|---|---|---|---|---|@.";
  List.iter
    (fun (s : Search.step) ->
      Format.fprintf fmt "| %a | %d | %d | %.3f | %s |@." pp_vector
        s.point.vector (Design.cycles s.point) (Design.space s.point)
        (Design.balance s.point) s.verdict)
    r.result.Search.steps;
  let st = r.result.Search.stats in
  Format.fprintf fmt "@.## Evaluation statistics@.@.";
  Format.fprintf fmt
    "- designs synthesized: %d (%d cache hits)@.- quick estimates: %d; \
     points pruned without synthesis: %d@.- transform time: %.1f ms; \
     estimate time: %.1f ms (dfg %.1f, schedule %.1f, layout %.1f)@.- \
     scheduler memo: %d block tri-schedules served content-addressed; %d \
     distinct shapes memoized@.- designs memoized in the context: %d@.@."
    st.evaluations st.cache_hits st.quick_estimates st.pruned
    (1000.0 *. st.transform_seconds)
    (1000.0 *. st.estimate_seconds)
    (1000.0 *. st.dfg_seconds)
    (1000.0 *. st.schedule_seconds)
    (1000.0 *. st.layout_seconds)
    st.sched_memo_hits (Design.sched_memo_size ctx)
    (Design.cache_size ctx);
  if st.checked_points > 0 then
    Format.fprintf fmt
      "- translation validation: %d design point(s) checked, %d violation(s)@.@."
      st.checked_points st.verify_violations;
  if st.flow_builds > 0 then
    Format.fprintf fmt
      "- dataflow checks: %d flow graph(s) built, %d fixpoint solve(s), %.1f \
       ms@.@."
      st.flow_builds st.flow_solves (1000.0 *. st.flow_seconds);
  Format.fprintf fmt "## Selected design: %a@.@." pp_vector sel.vector;
  let e = sel.estimate in
  Format.fprintf fmt
    "- execution: %d cycles (%.1f us at the target clock)@.- memory-only \
     bound: %d cycles; compute-only bound: %d cycles@.- balance B = F/C = \
     %.3f (F = %.1f, C = %.1f bits/cycle)@.- area: %d slices (%.1f%% of the \
     device)@.- registers: %d bits; FSM states: %d; memories used: %d@.@."
    e.Hls.Estimate.cycles
    (e.Hls.Estimate.time_ns /. 1000.0)
    e.Hls.Estimate.mem_only_cycles e.Hls.Estimate.comp_only_cycles
    e.Hls.Estimate.balance e.Hls.Estimate.fetch_rate
    e.Hls.Estimate.consumption_rate e.Hls.Estimate.slices
    (100.0 *. float_of_int e.Hls.Estimate.slices
    /. float_of_int device.Hls.Device.capacity_slices)
    e.Hls.Estimate.register_bits e.Hls.Estimate.states
    e.Hls.Estimate.memories_used;
  if e.Hls.Estimate.usage <> [] then begin
    Format.fprintf fmt "### Allocated operators@.@.";
    Format.fprintf fmt "| operator | width | units | slices |@.|---|---|---|---|@.";
    List.iter
      (fun ((cls, w), n) ->
        Format.fprintf fmt "| %s | %d | %d | %d |@."
          (Hls.Op_model.class_name cls)
          w n
          (n * Hls.Op_model.area cls ~width:w))
      e.Hls.Estimate.usage;
    Format.fprintf fmt "@."
  end;
  let rep = sel.report in
  Format.fprintf fmt "### Scalar replacement@.@.";
  Format.fprintf fmt
    "- accumulators hoisted/sunk: %d@.- register banks: %s@.- chains: %s@.- \
     element CSE loads: %d@.- registers introduced: %d@.@."
    rep.Transform.Scalar_replace.hoisted_members
    (match rep.Transform.Scalar_replace.banks with
    | [] -> "none"
    | b ->
        String.concat ", "
          (List.map (fun (a, n) -> Printf.sprintf "%s x%d" a n) b))
    (match rep.Transform.Scalar_replace.chain_lengths with
    | [] -> "none"
    | c ->
        String.concat ", "
          (List.map (fun (a, n) -> Printf.sprintf "%s x%d" a n) c))
    rep.Transform.Scalar_replace.cse_loads
    rep.Transform.Scalar_replace.registers;
  (* Data layout of the selected code. *)
  let accesses = Analysis.Access.collect sel.kernel.Ast.k_body in
  let layout =
    Data_layout.Layout.assign ~num_memories:device.Hls.Device.num_memories
      sel.kernel accesses
  in
  Format.fprintf fmt "### Data layout@.@.```@.%a```@.@." Data_layout.Layout.pp
    layout;
  Format.fprintf fmt "## Baseline comparison@.@.";
  Format.fprintf fmt
    "| design | cycles | slices | balance |@.|---|---|---|---|@.";
  Format.fprintf fmt "| baseline %a | %d | %d | %.3f |@." pp_vector
    r.baseline.vector (Design.cycles r.baseline)
    (Design.space r.baseline) (Design.balance r.baseline);
  Format.fprintf fmt "| selected %a | %d | %d | %.3f |@.@." pp_vector
    sel.vector (Design.cycles sel) (Design.space sel)
    (Design.balance sel);
  Format.fprintf fmt "**Speedup over baseline: %.2fx**@.@." (speedup r);
  Format.fprintf fmt "## Generated code@.@.```c@.%s@.```@."
    (Pretty.kernel_to_string sel.kernel)

let to_string (r : t) = Format.asprintf "%a" render r

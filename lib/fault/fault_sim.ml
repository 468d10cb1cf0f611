open Reseed_netlist
open Reseed_sim
open Reseed_util

type engine = Event | Cpt | Hybrid

let engine_name = function Event -> "event" | Cpt -> "cpt" | Hybrid -> "hybrid"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "event" -> Some Event
  | "cpt" -> Some Cpt
  | "hybrid" -> Some Hybrid
  | _ -> None

type t = {
  circuit : Circuit.t;
  faults : Fault.t array;
  engine : engine;
  model : Fault_model.t;
  site_sig : int array;
      (* transition model only: per-fault launch-signal node (the stem
         whose good value at the launch pattern gates activation) *)
  launch_prev : Bytes.t;
      (* transition model only: every node's good value at the last lane
         of the previous block — the launch value of the next block's
         lane 0 *)
  mutable launch_valid : bool;
      (* false on a sweep's first block: lane 0 has no launch pattern *)
  ffr : Ffr.t;
  po_position : int array; (* node -> PO index, or -1 *)
  level_off : int array;
      (* level -> first slot of its bucket in [queue]; each bucket has one
         slot per node at that level.  Immutable, shared by copies. *)
  (* Propagation scratch reused across injections; [stamp]/[queued] hold
     the id of the propagation that last wrote them, so no clearing is
     ever needed. *)
  stamp : int array;
  fval : int array;
  queue : int array;
  level_cnt : int array; (* pending nodes per level *)
  queued : int array;
  mutable lo : int; (* no pending node sits below this level *)
  mutable pending : int;
  mutable cur : int;
  (* Per-block CPT scratch, invalidated by bumping [block]. *)
  mutable block : int;
  obs : int array; (* stem -> flip-observability word *)
  obs_stamp : int array;
  sens : int array; (* node -> word of patterns where flipping it is detected *)
  sens_stamp : int array;
  path : int array; (* [sens]'s FFR-path stack, shared by nested calls *)
  mutable sp : int;
  mutable sims : int;
  mutable props : int;
}

(* Fresh scratch over the same immutable circuit/fault/FFR/PO/level
   arrays: the copy can run [process] concurrently with the original from
   another domain.  Its work counters start at zero so per-worker tallies
   can be summed back with [merge_sims]. *)
let copy t =
  let n = Circuit.node_count t.circuit in
  {
    t with
    launch_prev = Bytes.make n '\000';
    launch_valid = false;
    stamp = Array.make n (-1);
    fval = Array.make n 0;
    queue = Array.make n 0;
    level_cnt = Array.make (Array.length t.level_off) 0;
    queued = Array.make n (-1);
    lo = 0;
    pending = 0;
    cur = -1;
    block = 0;
    obs = Array.make n 0;
    obs_stamp = Array.make n (-1);
    sens = Array.make n 0;
    sens_stamp = Array.make n (-1);
    path = Array.make n 0;
    sp = 0;
    sims = 0;
    props = 0;
  }

let create ?(engine = Hybrid) ?(model = Fault_model.Stuck_at) circuit faults =
  let n = Circuit.node_count circuit in
  let po_position = Array.make n (-1) in
  Array.iteri (fun pos node -> po_position.(node) <- pos) circuit.Circuit.outputs;
  let level_off = Array.make (Circuit.max_level circuit + 2) 0 in
  Array.iter (fun l -> level_off.(l + 1) <- level_off.(l + 1) + 1) circuit.Circuit.level;
  for l = 1 to Array.length level_off - 1 do
    level_off.(l) <- level_off.(l) + level_off.(l - 1)
  done;
  let site_sig =
    match model with
    | Fault_model.Stuck_at -> [||]
    | Fault_model.Transition_delay ->
        Array.map (Fault_model.site_signal circuit) faults
  in
  (* The shared part; [copy] attaches the per-domain scratch. *)
  copy
    {
      circuit;
      faults;
      engine;
      model;
      site_sig;
      launch_prev = Bytes.empty;
      launch_valid = false;
      ffr = Ffr.compute circuit;
      po_position;
      level_off;
      stamp = [||];
      fval = [||];
      queue = [||];
      level_cnt = [||];
      queued = [||];
      lo = 0;
      pending = 0;
      cur = -1;
      block = 0;
      obs = [||];
      obs_stamp = [||];
      sens = [||];
      sens_stamp = [||];
      path = [||];
      sp = 0;
      sims = 0;
      props = 0;
    }

let shard t n =
  if n < 1 then invalid_arg "Fault_sim.shard: need at least one shard";
  Array.init n (fun i -> if i = 0 then t else copy t)

let merge_sims ~into shards =
  Array.iter
    (fun s ->
      if s != into then begin
        into.sims <- into.sims + s.sims;
        into.props <- into.props + s.props;
        s.sims <- 0;
        s.props <- 0
      end)
    shards

let circuit t = t.circuit
let faults t = t.faults
let model t = t.model
let fault_count t = Array.length t.faults
let sims_performed t = t.sims
let event_propagations t = t.props
let engine t = t.engine

(* Level-bucket event queue.  Every fanin sits at a lower level than its
   gate, so popping the lowest pending level is a topological order: a
   node is evaluated only once all its fanins are final.  A propagation
   pushes only above the level it is popping, so [lo] never moves down:
   push is O(1), and pop's scan over empty levels costs at most the
   circuit depth per propagation. *)
let push t i =
  if t.queued.(i) <> t.cur then begin
    t.queued.(i) <- t.cur;
    let l = t.circuit.Circuit.level.(i) in
    let c = t.level_cnt.(l) in
    t.queue.(t.level_off.(l) + c) <- i;
    t.level_cnt.(l) <- c + 1;
    t.pending <- t.pending + 1
  end

let pop t =
  while t.level_cnt.(t.lo) = 0 do
    t.lo <- t.lo + 1
  done;
  let c = t.level_cnt.(t.lo) - 1 in
  t.level_cnt.(t.lo) <- c;
  t.pending <- t.pending - 1;
  t.queue.(t.level_off.(t.lo) + c)

let push_fanouts t i =
  let fanouts = t.circuit.Circuit.fanouts.(i) in
  for k = 0 to Array.length fanouts - 1 do
    push t fanouts.(k)
  done

(* Start propagation [cur] (already bumped by the caller): node [s] takes
   the faulty word [v] and its fanouts, all above [s]'s level, are queued. *)
let inject t s v =
  t.props <- t.props + 1;
  t.stamp.(s) <- t.cur;
  t.fval.(s) <- v;
  t.lo <- t.circuit.Circuit.level.(s) + 1;
  push_fanouts t s

let full = max_int

(* Faulty-machine value of fanin [j] of [fanins]; [force_pin] pins one
   fanin to [force_word] (a [Pin] fault), [-1] pins none. *)
let arg t (good : int array) fanins j force_pin force_word =
  if j = force_pin then force_word
  else
    let f = fanins.(j) in
    if t.stamp.(f) = t.cur then t.fval.(f) else good.(f)

(* Re-evaluate node [i] in the faulty machine.  Every gate is a plain loop
   over its fanins: without flambda a local fold closure would allocate on
   each of the engine's hundreds of millions of calls. *)
let eval_faulty t good i ~force_pin ~force_word =
  let node = t.circuit.Circuit.nodes.(i) in
  let fanins = node.Circuit.fanins in
  let last = Array.length fanins - 1 in
  match node.Circuit.kind with
  | Gate.Input -> if t.stamp.(i) = t.cur then t.fval.(i) else good.(i)
  | Gate.Const0 -> 0
  | Gate.Const1 -> full
  | Gate.Buf -> arg t good fanins 0 force_pin force_word
  | Gate.Not -> lnot (arg t good fanins 0 force_pin force_word) land full
  | (Gate.And | Gate.Nand) as k ->
      let acc = ref full in
      for j = 0 to last do
        acc := !acc land arg t good fanins j force_pin force_word
      done;
      if k = Gate.And then !acc else lnot !acc land full
  | (Gate.Or | Gate.Nor) as k ->
      let acc = ref 0 in
      for j = 0 to last do
        acc := !acc lor arg t good fanins j force_pin force_word
      done;
      if k = Gate.Or then !acc else lnot !acc land full
  | (Gate.Xor | Gate.Xnor) as k ->
      let acc = ref 0 in
      for j = 0 to last do
        acc := !acc lxor arg t good fanins j force_pin force_word
      done;
      if k = Gate.Xor then !acc else lnot !acc land full

(* Pop the lowest pending node and evaluate it in the faulty machine; if
   it differs, record its value and queue its fanouts.  Returns [detect]
   extended by the node's difference when it drives a primary output. *)
let step t (good : int array) mask detect =
  let i = pop t in
  let v = eval_faulty t good i ~force_pin:(-1) ~force_word:0 in
  let diff = (v lxor good.(i)) land mask in
  if diff = 0 then detect
  else begin
    t.stamp.(i) <- t.cur;
    t.fval.(i) <- v;
    push_fanouts t i;
    if t.po_position.(i) >= 0 then detect lor diff else detect
  end

(* --- Event engine: single-fault event-driven propagation -------------- *)

(* Inject one fault against the good-machine block values and return the
   word of patterns that detect it at some primary output. *)
let process t (good : int array) mask (fault : Fault.t) =
  t.cur <- t.cur + 1;
  t.sims <- t.sims + 1;
  let stuck_word = if fault.Fault.stuck then full else 0 in
  let site =
    match fault.Fault.site with Fault.Out g -> g | Fault.Pin { gate; _ } -> gate
  in
  let site_value =
    match fault.Fault.site with
    | Fault.Out _ -> stuck_word
    | Fault.Pin { gate; pin } ->
        eval_faulty t good gate ~force_pin:pin ~force_word:stuck_word
  in
  let diff0 = (site_value lxor good.(site)) land mask in
  if diff0 = 0 then 0
  else begin
    inject t site site_value;
    let detect = ref (if t.po_position.(site) >= 0 then diff0 else 0) in
    while t.pending > 0 do
      detect := step t good mask !detect
    done;
    !detect
  end

(* --- CPT kernel: lazy critical-path tracing over fanout-free regions -- *)

(* Word of patterns where flipping fanin [pin] of gate [i] flips the
   gate's output, all other fanins held at their good values.  Gate-level
   inversions (NAND/NOR/NOT/XNOR) don't affect whether a flip passes. *)
let deriv t (good : int array) i ~pin =
  let node = t.circuit.Circuit.nodes.(i) in
  let fanins = node.Circuit.fanins in
  match node.Circuit.kind with
  | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor -> full
  | Gate.And | Gate.Nand ->
      let acc = ref full in
      for j = 0 to Array.length fanins - 1 do
        if j <> pin then acc := !acc land good.(fanins.(j))
      done;
      !acc
  | Gate.Or | Gate.Nor ->
      let acc = ref 0 in
      for j = 0 to Array.length fanins - 1 do
        if j <> pin then acc := !acc lor good.(fanins.(j))
      done;
      lnot !acc land full
  | Gate.Input | Gate.Const0 | Gate.Const1 ->
      (* gates with fanins only *)
      assert false

let pin_of t g p =
  let fanins = t.circuit.Circuit.nodes.(g).Circuit.fanins in
  let j = ref 0 in
  while fanins.(!j) <> p do
    incr j
  done;
  !j

(* Observability word of stem [s]: patterns where complementing [s]
   changes some primary output.  One level-ordered event propagation of
   the flip, handed off as soon as exactly one node [i] is pending: every
   difference evaluated so far has had all its fanouts evaluated except
   [i], and nothing above [i]'s level has been touched, so the rest of
   the faulty machine is [i]'s flip restricted to the lanes where [i]
   differs — [i] is the flip's immediate dominator on this block.  The
   answer is then [diff_i ∧ sens i], recursing into the memoised
   observability of the stem downstream. *)
let rec compute_obs t (good : int array) mask s =
  if not (Ffr.reaches_po t.ffr s) then 0
  else if t.po_position.(s) >= 0 then mask (* flips are their own witness *)
  else begin
    t.cur <- t.cur + 1;
    inject t s (lnot good.(s) land full);
    let detect = ref 0 in
    (* [s] reaches a PO without being one, so it has fanouts: the loop
       ends with exactly one node pending. *)
    while t.pending > 1 do
      detect := step t good mask !detect
    done;
    let i = pop t in
    let v = eval_faulty t good i ~force_pin:(-1) ~force_word:0 in
    let diff = (v lxor good.(i)) land mask in
    if diff = 0 then !detect else !detect lor (diff land sens t good mask i)
  end

and obs t good mask s =
  if t.obs_stamp.(s) = t.block then t.obs.(s)
  else begin
    let v = compute_obs t good mask s in
    t.obs.(s) <- v;
    t.obs_stamp.(s) <- t.block;
    v
  end

(* Detectability of a flip appearing at node [n]: the chain of single-path
   gate derivatives down to [n]'s FFR stem, ANDed with the stem's
   observability.  Memoised per block along the walked path, which is
   kept on the [path] stack above any segment an enclosing call owns. *)
and sens t good mask n =
  if t.sens_stamp.(n) = t.block then t.sens.(n)
  else begin
    (* Ascend the unique fanout path to the first memoised node or stem. *)
    let base = t.sp in
    let top = ref n in
    while t.sens_stamp.(!top) <> t.block && not (Ffr.is_stem t.ffr !top) do
      t.path.(t.sp) <- !top;
      t.sp <- t.sp + 1;
      top := t.circuit.Circuit.fanouts.(!top).(0)
    done;
    let acc = ref 0 in
    if t.sens_stamp.(!top) = t.block then acc := t.sens.(!top)
    else begin
      acc := obs t good mask !top;
      t.sens.(!top) <- !acc;
      t.sens_stamp.(!top) <- t.block
    end;
    (* Descend back towards [n], stem side first. *)
    while t.sp > base do
      t.sp <- t.sp - 1;
      let p = t.path.(t.sp) in
      (if !acc <> 0 then
         let g = t.circuit.Circuit.fanouts.(p).(0) in
         acc := !acc land deriv t good g ~pin:(pin_of t g p));
      t.sens.(p) <- !acc;
      t.sens_stamp.(p) <- t.block
    done;
    !acc
  end

let process_cpt t (good : int array) mask (fault : Fault.t) =
  t.sims <- t.sims + 1;
  let stuck_word = if fault.Fault.stuck then full else 0 in
  match fault.Fault.site with
  | Fault.Out g ->
      let excite = (stuck_word lxor good.(g)) land mask in
      if excite = 0 then 0 else excite land sens t good mask g
  | Fault.Pin { gate; pin } ->
      (* Bump [cur] so [eval_faulty] sees pristine good values (stamps from
         earlier observability propagations go stale). *)
      t.cur <- t.cur + 1;
      let v = eval_faulty t good gate ~force_pin:pin ~force_word:stuck_word in
      let diff = (v lxor good.(gate)) land mask in
      if diff = 0 then 0 else diff land sens t good mask gate

(* [Cpt] and [Hybrid] name the same kernel (see the interface). *)
let grade t good mask fault =
  match t.engine with
  | Event -> process t good mask fault
  | Cpt | Hybrid -> process_cpt t good mask fault

(* Per-fault dispatch with the fault model applied.  Under [Stuck_at]
   this is [grade] verbatim.  Under [Transition_delay] the
   capture-cycle detection word the stuck-at engines computed is masked
   down to the lanes whose {e preceding} pattern put the launch signal at
   the fault's slow initial value (= the capture stuck value): lane [k]'s
   launch value is lane [k-1] of [good] at the site signal, lane 0 takes
   the last lane of the previous block from [launch_prev], and lane 0 of
   a sweep's first block has no launch pattern at all and is masked
   out.  The [sims]/[props] accounting is the capture grade's, so the
   cost metrics stay comparable across models. *)
let process_fault t good mask fi fault =
  match t.model with
  | Fault_model.Stuck_at -> grade t good mask fault
  | Fault_model.Transition_delay ->
      let d = grade t good mask fault in
      if d = 0 then 0
      else begin
        let s = Array.unsafe_get t.site_sig fi in
        let carry = Char.code (Bytes.unsafe_get t.launch_prev s) in
        let launch = ((good.(s) lsl 1) lor carry) land mask in
        let ok =
          if fault.Fault.stuck then launch else lnot launch land mask
        in
        let valid = if t.launch_valid then mask else mask land lnot 1 in
        d land ok land valid
      end

(* Blocks are packed and good-simulated one at a time so that [stop] — the
   fault-dropping early exit or an expired wall-clock budget — skips the
   good-machine work of every block past the last one needed.  One block
   (62 patterns) is the cooperative-cancellation granularity of every
   sweep: a tripped budget is honoured before the next block starts.
   Every sweep treats its pattern array as a {e sequence}: under the
   transition model the launch value of each block's lane 0 carries over
   from the previous block's last lane. *)
let iter_blocks ?budget ?(stop = fun () -> false) t patterns f =
  let stop () = stop () || Budget.check budget in
  let total = Array.length patterns in
  t.launch_valid <- false;
  let base = ref 0 in
  while !base < total && not (stop ()) do
    let len = min Logic_sim.block_width (total - !base) in
    let block = Logic_sim.pack t.circuit (Array.sub patterns !base len) in
    let good = Logic_sim.simulate t.circuit block in
    let mask = Logic_sim.valid_mask block.Logic_sim.width in
    t.block <- t.block + 1 (* new good values: drop the CPT memo *);
    f ~base:!base ~good ~mask;
    if t.model = Fault_model.Transition_delay then begin
      let last = len - 1 in
      for i = 0 to Array.length good - 1 do
        Bytes.unsafe_set t.launch_prev i
          (Char.unsafe_chr ((good.(i) lsr last) land 1))
      done;
      t.launch_valid <- true
    end;
    base := !base + len
  done

(* Engine-level metrics.  Hot loops keep bumping the private per-shard
   [sims]/[props] fields (zero contention, bit-identical behaviour); each
   public sweep publishes its delta to the shared registry on the way
   out, exceptions included, so interrupted runs still report work done. *)
let m_sims =
  Metrics.counter ~help:"single-fault simulations performed" "fault_sims"

let m_props =
  Metrics.counter ~help:"event-driven difference propagations" "event_propagations"

let with_sweep name t patterns f =
  Trace.with_span name
    ~args:[ ("patterns", string_of_int (Array.length patterns)) ]
  @@ fun () ->
  let sims0 = t.sims and props0 = t.props in
  Fun.protect
    ~finally:(fun () ->
      Metrics.add m_sims (t.sims - sims0);
      Metrics.add m_props (t.props - props0))
    f

let detection_map ?budget t patterns =
  with_sweep "fault_sim.detection_map" t patterns @@ fun () ->
  let total = Array.length patterns in
  let result = Array.init (fault_count t) (fun _ -> Bitvec.create total) in
  iter_blocks ?budget t patterns (fun ~base ~good ~mask ->
      Array.iteri
        (fun fi fault ->
          let d = process_fault t good mask fi fault in
          if d <> 0 then
            (* [d land mask] keeps every set lane below the block length,
               so [base + k] is always in range. *)
            for k = 0 to Logic_sim.block_width - 1 do
              if d lsr k land 1 = 1 then Bitvec.unsafe_set result.(fi) (base + k)
            done)
        t.faults);
  result

let detected_set ?budget t patterns ~active =
  if Bitvec.length active <> fault_count t then
    invalid_arg "Fault_sim.detected_set: active mask size mismatch";
  with_sweep "fault_sim.detected_set" t patterns @@ fun () ->
  let detected = Bitvec.create (fault_count t) in
  let remaining = ref (Bitvec.count active) in
  iter_blocks ?budget ~stop:(fun () -> !remaining = 0) t patterns
    (fun ~base:_ ~good ~mask ->
      (* [fi] ranges over the fault array, whose length both vectors were
         checked (or built) to match — the per-fault test is the hottest
         line of the sweep, so skip the bounds checks. *)
      Array.iteri
        (fun fi fault ->
          if Bitvec.unsafe_get active fi && not (Bitvec.unsafe_get detected fi)
          then
            if process_fault t good mask fi fault <> 0 then begin
              Bitvec.unsafe_set detected fi;
              decr remaining
            end)
        t.faults);
  detected

let first_detections ?budget t ?active patterns =
  (match active with
  | Some a when Bitvec.length a <> fault_count t ->
      invalid_arg "Fault_sim.first_detections: active mask size mismatch"
  | _ -> ());
  with_sweep "fault_sim.first_detections" t patterns @@ fun () ->
  let result = Array.make (fault_count t) None in
  let live fi =
    match active with None -> true | Some a -> Bitvec.unsafe_get a fi
  in
  let remaining =
    ref
      (match active with
      | None -> fault_count t
      | Some a -> Bitvec.count a)
  in
  iter_blocks ?budget ~stop:(fun () -> !remaining = 0) t patterns
    (fun ~base ~good ~mask ->
      Array.iteri
        (fun fi fault ->
          if live fi && result.(fi) = None then begin
            let d = process_fault t good mask fi fault in
            if d <> 0 then begin
              let k = ref 0 in
              while d lsr !k land 1 = 0 do incr k done;
              result.(fi) <- Some (base + !k);
              decr remaining
            end
          end)
        t.faults);
  result

let count_new_detections ?budget t patterns ~active =
  Bitvec.count (detected_set ?budget t patterns ~active)

let coverage_pct t detected = Stats.pct (Bitvec.count detected) (fault_count t)

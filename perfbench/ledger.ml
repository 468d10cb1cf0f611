(* The reseeding pipeline benchmark: one workload per process.

     ledger.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 times whole passes of the workload (every job through
   [Suite.prepare] and [Flow.run]) for S seconds and prints the
   end-to-end metrics.  --trace 1 runs one untraced reference pass, then
   one pass that splits every job into its public layer calls
   ([Suite.prepare] -> [Builder.build] -> [Reduce.run] -> [Solution.solve]
   -> [Flow.truncate_solution] -> [Flow.verify]), timing each call from
   here, plus row-cost probes, and prints the per-layer metrics.  The
   library's own tracer stays off; its [Metrics] counters are read as
   deltas around each call.

   Every job is checked outside the timed phase by re-simulating its
   final triplets on a fresh event-driven simulator.  The last line of
   stdout is one JSON object: correct, attempted, failed, metrics. *)

open Reseed_core
open Reseed_fault
open Reseed_netlist
open Reseed_setcover
open Reseed_sim
open Reseed_tpg
open Reseed_util

let cycles = 150
let pool_jobs = 2
let default_seed = 42

(* Set-ups per run: a cold set-up takes milliseconds, a warm one fills a
   store with a whole cold pass. *)
let setup_repeats ~warm = if warm then 3 else 25

(* Stores and span files, relative to the checkout root. *)
let out = ".perfbench"

type workload = {
  name : string;
  circuits : string list;
  tpgs : string list;
  model : Fault_model.t;
  collapse : bool;
  warm : bool;  (** timed passes read a store filled during set-up *)
  seeded : bool;
      (** [--seed] feeds the RNG seeds; otherwise they stay at the
          defaults, because with few jobs the exact solver's effort swings
          several-fold between seeds *)
  probe_rows : int;  (** bursts per job for the row-cost probe *)
}

let all_tpgs = [ "adder"; "multiplier"; "subtracter" ]

let workloads =
  [
    {
      name = "quick_cold";
      circuits = Suite.quick_suite;
      tpgs = all_tpgs;
      model = Fault_model.Stuck_at;
      collapse = true;
      warm = false;
      seeded = true;
      probe_rows = 4;
    };
    {
      name = "xl_cold";
      circuits = [ "s953_x4" ];
      tpgs = [ "adder" ];
      model = Fault_model.Stuck_at;
      collapse = true;
      warm = false;
      seeded = false;
      probe_rows = 12;
    };
    {
      name = "quick_warm";
      circuits = Suite.quick_suite;
      tpgs = all_tpgs;
      model = Fault_model.Stuck_at;
      collapse = true;
      warm = true;
      seeded = true;
      probe_rows = 4;
    };
    {
      name = "transition_cold";
      circuits = [ "c432"; "s820" ];
      tpgs = all_tpgs;
      model = Fault_model.Transition_delay;
      collapse = false;
      warm = false;
      seeded = false;
      probe_rows = 4;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Small numeric helpers. *)

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear interpolation between closest ranks, q in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let ratio a b = if b > 0.0 then a /. b else 0.0
let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Inputs. *)

type env = {
  wl : workload;
  circuits : Circuit.t list;
  pool : Pool.t;
  store : Artifact.store option;
  atpg_config : Reseed_atpg.Atpg.config;
  config : Flow.config;
}

(* The seed feeds both RNG streams; seed 42 gives the library defaults
   (ATPG 42, builder operands 17). *)
let configs seed =
  let atpg_config = { Reseed_atpg.Atpg.default_config with seed } in
  let builder = { Builder.default_config with Builder.cycles; seed = seed lxor 59 } in
  (atpg_config, { Flow.default_config with Flow.builder })

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec tree_bytes ?(skip = "") path =
  if Filename.basename path = skip then 0
  else
    match Sys.is_directory path with
    | true ->
        Array.fold_left
          (fun acc f -> acc + tree_bytes ~skip (Filename.concat path f))
          0 (Sys.readdir path)
    | false -> (Unix.stat path).Unix.st_size
    | exception Sys_error _ -> 0

(* ------------------------------------------------------------------ *)
(* One job = one (circuit, TPG) pair of the workload. *)

type job = {
  label : string;
  prep : Suite.prepared option;
  tpg : Tpg.t option;
  flow : (Flow.result, string) result;
}

let error_text e =
  match e with
  | Error.Reseed_error err -> Error.to_string err
  | e -> Printexc.to_string e

let tpgs_of env p =
  List.filter (fun t -> List.mem t.Tpg.name env.wl.tpgs) (Suite.paper_tpgs p)

let prepare env circuit =
  Suite.prepare_circuit ~atpg_config:env.atpg_config ~fault_model:env.wl.model
    ~collapse:env.wl.collapse ?store:env.store circuit

let failed_circuit env circuit e =
  List.map
    (fun t ->
      {
        label = Circuit.name circuit ^ "/" ^ t;
        prep = None;
        tpg = None;
        flow = Error (error_text e);
      })
    env.wl.tpgs

(* [run_jobs env ~prepare ~run] prepares each circuit, then runs each of
   its jobs; whatever a job raises is that job's failure, never the
   run's. *)
let run_jobs env ~prepare ~run =
  List.concat_map
    (fun circuit ->
      match prepare circuit with
      | exception e -> failed_circuit env circuit e
      | p ->
          List.map
            (fun tpg ->
              {
                label = Circuit.name circuit ^ "/" ^ tpg.Tpg.name;
                prep = Some p;
                tpg = Some tpg;
                flow = (try Ok (run p tpg) with e -> Error (error_text e));
              })
            (tpgs_of env p))
    env.circuits

(* The pipeline as a user runs it: prepare each circuit, then
   [Flow.run] per TPG. *)
let flow_pass env =
  run_jobs env ~prepare:(prepare env) ~run:(fun p tpg ->
      Flow.run ~config:env.config ~pool:env.pool ?store:env.store
        ~fingerprint:p.Suite.fingerprint p.Suite.sim tpg ~tests:p.Suite.tests
        ~targets:p.Suite.targets)

let triplets_text ts =
  String.concat ";"
    (List.map
       (fun t ->
         Printf.sprintf "%s,%s,%d" (Word.to_hex t.Triplet.seed)
           (Word.to_hex t.Triplet.operand) t.Triplet.cycles)
       ts)

(* Digest of every job's final (δ, σ, T) list, in job order. *)
let digest jobs =
  let b = Buffer.create 4096 in
  List.iter
    (fun j ->
      Buffer.add_string b j.label;
      Buffer.add_char b '=';
      (match j.flow with
      | Ok r -> Buffer.add_string b (triplets_text r.Flow.final_triplets)
      | Error _ -> Buffer.add_string b "error");
      Buffer.add_char b '\n')
    jobs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Independent check and quality figures. *)

type check = {
  failure : string option;
  targets : int;
  covered : int;
  triplets : int;
  test_length : int;
  rom_bits : int;
}

(* Re-simulates the final triplets back to back, like [Flow.verify], but
   on a fresh event-driven simulator: no CPT, no shared scratch. *)
let check_job j =
  match (j.prep, j.tpg, j.flow) with
  | Some p, Some tpg, Ok r ->
      let sim =
        Fault_sim.create ~engine:Fault_sim.Event ~model:p.Suite.fault_model
          p.Suite.circuit (Fault_sim.faults p.Suite.sim)
      in
      let patterns =
        Array.concat (List.map (Triplet.patterns tpg) r.Flow.final_triplets)
      in
      let detected = Fault_sim.detected_set sim patterns ~active:p.Suite.targets in
      let targets = Bitvec.count p.Suite.targets in
      let covered = Bitvec.count_inter detected p.Suite.targets in
      let failure =
        if r.Flow.degraded then Some "degraded"
        else if covered < targets then
          Some (Printf.sprintf "re-simulation covers %d of %d targets" covered targets)
        else None
      in
      {
        failure;
        targets;
        covered;
        triplets = List.length r.Flow.final_triplets;
        test_length =
          List.fold_left (fun acc t -> acc + t.Triplet.cycles) 0 r.Flow.final_triplets;
        rom_bits =
          List.fold_left (fun acc t -> acc + Triplet.storage_bits t) 0
            r.Flow.final_triplets;
      }
  | _, _, Error msg ->
      let targets =
        match j.prep with Some p -> Bitvec.count p.Suite.targets | None -> 0
      in
      { failure = Some msg; targets; covered = 0; triplets = 0; test_length = 0; rom_bits = 0 }
  | _ -> invalid_arg "check_job"

let check_all jobs =
  let checks = List.map (fun j -> (j, check_job j)) jobs in
  List.iter
    (fun (j, c) ->
      Option.iter (fun why -> Printf.printf "job failed: %s: %s\n" j.label why) c.failure)
    checks;
  List.map snd checks

let failures checks = List.length (List.filter (fun c -> c.failure <> None) checks)

(* ------------------------------------------------------------------ *)
(* Output. *)

type metric = { m_name : string; value : float; unit_ : string }

let metric m_name unit_ value = { m_name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let report ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-30s %18s %s\n" m.m_name (json_number m.value) m.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Set-up: load the netlists, start the pool and, for a warm workload,
   fill a fresh store with one cold pass (its digest is kept).  Repeated;
   the last one is kept and the median time reported. *)

let input_seed (wl : workload) seed = if wl.seeded then seed else default_seed

let setup (wl : workload) ~seed ~repeats =
  let atpg_config, config = configs (input_seed wl seed) in
  let rec go i samples kept =
    if i = repeats then (List.rev samples, Option.get kept)
    else begin
      Option.iter
        (fun (env, _) ->
          Pool.shutdown env.pool;
          Option.iter (fun s -> remove_tree (Artifact.root s)) env.store)
        kept;
      let t0 = now () in
      let circuits = List.map (fun n -> Library.load n) wl.circuits in
      let pool = Pool.create ~jobs:pool_jobs () in
      let store =
        if wl.warm then begin
          let dir = Filename.concat out (Printf.sprintf "store-%d-%d" (Unix.getpid ()) i) in
          remove_tree dir;
          Some (Artifact.open_store dir)
        end
        else None
      in
      let env = { wl; circuits; pool; store; atpg_config; config } in
      let fill = if wl.warm then Some (digest (flow_pass env)) else None in
      let dt = now () -. t0 in
      go (i + 1) (dt :: samples) (Some (env, fill))
    end
  in
  go 0 [] None

let teardown env =
  Pool.shutdown env.pool;
  Option.iter (fun s -> remove_tree (Artifact.root s)) env.store

let peak_rss_mb () =
  match Rss.peak_kb () with Some kb -> float_of_int kb /. 1024.0 | None -> 0.0

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics. *)

let untraced wl ~seed ~seconds =
  let setup_samples, (env, fill) = setup wl ~seed ~repeats:(setup_repeats ~warm:wl.warm) in
  let t_start = now () in
  (* Only the last pass's jobs outlive it, and each pass starts from a
     collected heap, so the peak RSS does not grow with the pass count. *)
  let rec loop walls cpus digests =
    Gc.full_major ();
    let w0 = now () and c0 = cpu_now () in
    let jobs = flow_pass env in
    let wall = now () -. w0 and cpu = cpu_now () -. c0 in
    let walls = wall :: walls and cpus = cpu :: cpus in
    let digests = digest jobs :: digests in
    if now () -. t_start +. wall <= seconds then loop walls cpus digests
    else (walls, cpus, jobs, digests)
  in
  let walls, cpus, jobs, digests = loop [] [] [] in
  let checks = check_all jobs in
  let d = digest jobs in
  let deterministic = List.for_all (String.equal d) digests in
  let warm_matches_cold =
    match fill with Some f -> String.equal f d | None -> true
  in
  if not deterministic then print_endline "check failed: passes disagree";
  if not warm_matches_cold then print_endline "check failed: warm != cold";
  let attempted = List.length jobs and failed = failures checks in
  let isum f = float_of_int (List.fold_left (fun acc c -> acc + f c) 0 checks) in
  let wall_s = median walls in
  Printf.printf "workload %s input seed %d: jobs %d, jobs_failed %d, digest %s\n" wl.name
    (input_seed wl seed) attempted failed d;
  Printf.printf "%d passes, wall_s min %.3f median %.3f max %.3f\n" (List.length walls)
    (List.fold_left Float.min infinity walls) (median walls)
    (List.fold_left Float.max 0.0 walls);
  report ~correct:(deterministic && warm_matches_cold) ~attempted ~failed
    [
      metric "wall_s" "s" wall_s;
      metric "cpu_s" "s" (median cpus);
      metric "setup_s" "s" (median setup_samples);
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
      metric "solutions_per_s" "1/s" (ratio (float_of_int (attempted - failed)) wall_s);
      metric "triplets" "count" (isum (fun c -> c.triplets));
      metric "test_length" "cycles" (isum (fun c -> c.test_length));
      metric "rom_bits" "bit" (isum (fun c -> c.rom_bits));
      metric "coverage_pct" "%"
        (100.0 *. ratio (isum (fun c -> c.covered)) (isum (fun c -> c.targets)));
    ];
  teardown env

(* ------------------------------------------------------------------ *)
(* --trace 1: spans around every layer call, kept in memory. *)

type span = {
  id : int;
  name : string;
  parent : int;
  job : string;
  start : float;
  stop : float;
}

let spans = ref []
let next_span = ref 0

(* Per-layer totals: seconds, CPU seconds, allocation and collections,
   and the delta of every library counter across the layer's calls. *)
type layer = {
  mutable secs : float;
  mutable cpu : float;
  mutable minor_words : float;
  mutable major : int;
  counters : (string, int) Hashtbl.t;
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 16

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l =
        { secs = 0.0; cpu = 0.0; minor_words = 0.0; major = 0; counters = Hashtbl.create 16 }
      in
      Hashtbl.add layers name l;
      l

let counter_values () =
  List.filter_map
    (function n, Metrics.Counter_v v -> Some (n, v) | _, Metrics.Gauge_v _ -> None)
    (Metrics.snapshot ())

let span ~parent ~job name f =
  incr next_span;
  let id = !next_span in
  let start = now () in
  let finish () = spans := { id; name; parent; job; start; stop = now () } :: !spans in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* [call layer_name ~parent ~job f] is one layer call: a span plus the
   layer's time, GC and counter deltas. *)
let call lname ~parent ~job f =
  let l = layer lname in
  let before = counter_values () in
  let g0 = Gc.quick_stat () and c0 = cpu_now () and t0 = now () in
  let finish () =
    let g1 = Gc.quick_stat () in
    l.secs <- l.secs +. (now () -. t0);
    l.cpu <- l.cpu +. (cpu_now () -. c0);
    l.minor_words <- l.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    l.major <- l.major + (g1.Gc.major_collections - g0.Gc.major_collections);
    List.iter
      (fun (n, v) ->
        let v0 = Option.value (List.assoc_opt n before) ~default:0 in
        let acc = Option.value (Hashtbl.find_opt l.counters n) ~default:0 in
        Hashtbl.replace l.counters n (acc + v - v0))
      (counter_values ())
  in
  match span ~parent ~job lname (fun _ -> f ()) with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let secs lname = (layer lname).secs
let counted lname counter = Option.value (Hashtbl.find_opt (layer lname).counters counter) ~default:0

let counted_all counter lnames =
  float_of_int (List.fold_left (fun acc l -> acc + counted l counter) 0 lnames)

(* What the traced pass returns beside its jobs. *)
let patterns = ref 0
let reductions = ref []
let verdicts = ref []

(* The cold chain: each Flow.run stage as its own public call. *)
let cold_job env p ~parent ~job tpg =
  let sim = p.Suite.sim and tests = p.Suite.tests and targets = p.Suite.targets in
  let initial =
    call "builder" ~parent ~job (fun () ->
        Builder.build ~pool:env.pool sim tpg ~tests ~targets ~config:env.config.Flow.builder)
  in
  let m = initial.Builder.matrix in
  let red = call "reduce" ~parent ~job (fun () -> Reduce.run ~config:env.config.Flow.reduce m) in
  reductions := red :: !reductions;
  let solution =
    call "solve" ~parent ~job (fun () ->
        Solution.solve ~method_:env.config.Flow.method_
          ~reduce_config:env.config.Flow.reduce ~pool:env.pool m)
  in
  let final_triplets, missed, dropped =
    call "truncate" ~parent ~job (fun () ->
        Flow.truncate_solution sim tpg ~triplets:initial.Builder.triplets ~targets
          solution.Solution.rows)
  in
  (* Assembled as Flow.run_prebuilt does; the fields no check reads
     (uniform length, work and time) are left zero. *)
  {
    Flow.tpg_name = tpg.Tpg.name;
    initial;
    solution;
    final_triplets;
    dropped_triplets = dropped;
    test_length = List.fold_left (fun acc t -> acc + t.Triplet.cycles) 0 final_triplets;
    uniform_test_length = 0;
    coverage_pct =
      Stats.pct
        (Bitvec.count targets - Bitvec.count missed)
        (max 1 (Bitvec.count targets));
    fault_sims = 0;
    elapsed_s = 0.0;
    degraded =
      solution.Solution.stats.Solution.degraded || initial.Builder.rows_skipped > 0;
    stop_reason = None;
  }

(* The warm chain: the store answers the matrix stage and the
   reduce/solve/truncate stages, so those are the calls. *)
let warm_job env p ~parent ~job tpg =
  let sim = p.Suite.sim and tests = p.Suite.tests and targets = p.Suite.targets in
  let fingerprint =
    Builder.fingerprint ~salt:p.Suite.fingerprint ~fault_model:env.wl.model ~tests
      ~targets tpg ~config:env.config.Flow.builder
  in
  let initial =
    call "builder" ~parent ~job (fun () ->
        Builder.build ~pool:env.pool ?store:env.store ~fingerprint sim tpg ~tests
          ~targets ~config:env.config.Flow.builder)
  in
  call "prebuilt" ~parent ~job (fun () ->
      Flow.run_prebuilt ~config:env.config ~pool:env.pool ?store:env.store ~fingerprint
        sim tpg ~initial ~targets)

let chain_pass env =
  let job_fn = if env.wl.warm then warm_job else cold_job in
  span ~parent:0 ~job:env.wl.name "pass" @@ fun pass ->
  run_jobs env
    ~prepare:(fun circuit ->
      let p =
        call "atpg" ~parent:pass ~job:(Circuit.name circuit) (fun () -> prepare env circuit)
      in
      patterns := !patterns + Array.length p.Suite.tests;
      p)
    ~run:(fun p tpg ->
      let job = Circuit.name p.Suite.circuit ^ "/" ^ tpg.Tpg.name in
      span ~parent:pass ~job "job" @@ fun parent ->
      let r = job_fn env p ~parent ~job tpg in
      let ok = call "verify" ~parent ~job (fun () -> Flow.verify p.Suite.sim tpg r) in
      verdicts := (job, ok) :: !verdicts;
      r)

(* Row-cost probe: [probe_rows] evenly spaced bursts of every job, each
   timed as a TPG burst, a good-machine block and one matrix row under
   every fault-simulation engine; the three engines' rows must agree. *)
let engines = [ Fault_sim.Event; Fault_sim.Cpt; Fault_sim.Hybrid ]

type probe = {
  mutable burst_us : float list;
  mutable block_us : float list;
  mutable row_ms : (Fault_sim.engine * float) list;
  mutable rows_identical : bool;
}

let time_per_call reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps

let probe_job probe wl j =
  match (j.prep, j.tpg, j.flow) with
  | Some p, Some tpg, Ok r ->
      let c = p.Suite.circuit and faults = Fault_sim.faults p.Suite.sim in
      let sims =
        List.map
          (fun e -> (e, Fault_sim.create ~engine:e ~model:p.Suite.fault_model c faults))
          engines
      in
      let triplets = r.Flow.initial.Builder.triplets in
      let n = Array.length triplets in
      let k = min n wl.probe_rows in
      for s = 0 to k - 1 do
        let t = triplets.(s * n / k) in
        let patterns = Triplet.patterns tpg t in
        probe.burst_us <-
          (1e6 *. time_per_call 50 (fun () -> Triplet.patterns tpg t)) :: probe.burst_us;
        let block =
          Logic_sim.pack c
            (Array.sub patterns 0 (min Logic_sim.block_width (Array.length patterns)))
        in
        probe.block_us <-
          (1e6 *. time_per_call 50 (fun () -> Logic_sim.simulate c block)) :: probe.block_us;
        let rows =
          List.map
            (fun (e, sim) ->
              let t0 = now () in
              let row = Fault_sim.first_detections sim ~active:p.Suite.targets patterns in
              probe.row_ms <- (e, 1e3 *. (now () -. t0)) :: probe.row_ms;
              row)
            sims
        in
        if not (List.for_all (( = ) (List.hd rows)) rows) then begin
          Printf.printf "check failed: %s row %d differs across engines\n" j.label
            (s * n / k);
          probe.rows_identical <- false
        end
      done
  | _ -> ()

let write_spans path =
  let oc = open_out path in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"ts\": %.1f, \"dur\": %.1f, \"pid\": 1, \
         \"tid\": 1, \"args\": {\"id\": %d, \"parent\": %d, \"job\": %S}}\n"
        (if i = 0 then "" else ",")
        s.name
        (1e6 *. (s.start -. t0))
        (1e6 *. (s.stop -. s.start))
        s.id s.parent s.job)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc

let traced wl ~seed =
  let _, (env, _) = setup wl ~seed ~repeats:1 in
  let w0 = now () in
  let reference = flow_pass env in
  let reference_wall = now () -. w0 in
  let w1 = now () in
  let jobs = chain_pass env in
  let chain_wall = now () -. w1 in
  let same_triplets =
    List.for_all2
      (fun a b ->
        let same =
          match (a.flow, b.flow) with
          | Ok x, Ok y ->
              String.equal
                (triplets_text x.Flow.final_triplets)
                (triplets_text y.Flow.final_triplets)
          | Error _, Error _ -> true
          | _ -> false
        in
        if not same then Printf.printf "check failed: %s: layer chain != Flow.run\n" a.label;
        same)
      jobs reference
  in
  let probe = { burst_us = []; block_us = []; row_ms = []; rows_identical = true } in
  List.iter (probe_job probe wl) jobs;
  let checks = check_all jobs in
  (* Flow.verify and the independent re-simulation judge the same
     triplets against the same targets, so they must agree. *)
  let verify_agrees =
    List.for_all2
      (fun j c ->
        match List.assoc_opt j.label !verdicts with
        | Some ok when ok <> (c.covered = c.targets) ->
            Printf.printf "check failed: %s: Flow.verify %b, re-simulation %d of %d\n" j.label
              ok c.covered c.targets;
            false
        | _ -> true)
      jobs checks
  in
  let attempted = List.length jobs and failed = failures checks in
  Printf.printf "workload %s input seed %d (traced): jobs %d, jobs_failed %d, digest %s\n"
    wl.name (input_seed wl seed) attempted failed (digest jobs);
  let f = float_of_int in
  let row_ms e = List.filter_map (fun (e', ms) -> if e = e' then Some ms else None) probe.row_ms in
  let build_s = secs "builder" in
  let build_sims = f (counted "builder" "fault_sims") in
  let pipeline = [ "atpg"; "builder"; "truncate"; "prebuilt" ] in
  let gc name lnames =
    [
      metric ("gc.minor_mwords." ^ name) "Mwords"
        (sum (List.map (fun l -> (layer l).minor_words) lnames) /. 1e6);
      metric ("gc.major_collections." ^ name) "count"
        (f (List.fold_left (fun acc l -> acc + (layer l).major) 0 lnames));
    ]
  in
  let store_bytes, read_bytes =
    match env.store with
    | Some s -> (tree_bytes (Artifact.root s), tree_bytes ~skip:"matrixshard" (Artifact.root s))
    | None -> (0, 0)
  in
  let warm_s = secs "atpg" +. secs "builder" +. secs "prebuilt" in
  let if_warm v = if wl.warm then v else 0.0 in
  let flows = List.filter_map (fun j -> Result.to_option j.flow) jobs in
  let over_flows g = f (List.fold_left (fun acc r -> acc + g r) 0 flows) in
  let over_matrices g = over_flows (fun r -> g r.Flow.initial.Builder.matrix) in
  let rows = over_matrices Matrix.rows and ones = over_matrices Matrix.ones in
  let cells =
    sum
      (List.map
         (fun r ->
           let m = r.Flow.initial.Builder.matrix in
           f (Matrix.rows m) *. f (Matrix.cols m))
         flows)
  in
  let over_reductions g = f (List.fold_left (fun acc r -> acc + g r) 0 !reductions) in
  report ~correct:(same_triplets && probe.rows_identical && verify_agrees) ~attempted ~failed
    ([
       metric "atpg.prepare_s" "s" (secs "atpg");
       metric "atpg.patterns" "count" (f !patterns);
       metric "atpg.podem_decisions" "count" (f (counted "atpg" "podem_decisions"));
       metric "atpg.podem_backtracks" "count" (f (counted "atpg" "podem_backtracks"));
       metric "atpg.random_patterns" "count" (f (counted "atpg" "atpg_random_patterns"));
       metric "atpg.aborted" "count" (f (counted "atpg" "atpg_aborted"));
       metric "atpg.untestable" "count" (f (counted "atpg" "atpg_untestable"));
       metric "tpg.burst_us" "us" (median probe.burst_us);
       metric "sim.block_us" "us" (median probe.block_us);
       metric "fault.row_ms.p50" "ms" (quantile 0.5 (row_ms Fault_sim.Hybrid));
       metric "fault.row_ms.p90" "ms" (quantile 0.9 (row_ms Fault_sim.Hybrid));
       metric "fault.row_ms.event" "ms" (median (row_ms Fault_sim.Event));
       metric "fault.row_ms.cpt" "ms" (median (row_ms Fault_sim.Cpt));
       metric "fault.row_ms.hybrid" "ms" (median (row_ms Fault_sim.Hybrid));
       metric "fault.sims" "count" (counted_all "fault_sims" pipeline);
       metric "fault.event_propagations" "count" (counted_all "event_propagations" pipeline);
       metric "fault.useful_ratio" "ratio" (ratio ones build_sims);
       metric "builder.build_s" "s" build_s;
       metric "builder.rows" "count" rows;
       metric "builder.rows_per_s" "1/s" (ratio rows build_s);
       metric "builder.parallel_eff" "ratio"
         (ratio (layer "builder").cpu (build_s *. f pool_jobs));
       metric "matrix.cols" "count" (over_matrices Matrix.cols);
       metric "matrix.ones" "count" ones;
       metric "matrix.density" "ratio" (ratio ones cells);
       metric "reduce.run_s" "s" (secs "reduce");
       metric "reduce.iterations" "count" (over_reductions (fun r -> r.Reduce.iterations));
       metric "reduce.essential_rows" "count" (over_reductions (fun r -> List.length r.Reduce.necessary));
       metric "reduce.rows_dominated" "count" (over_reductions (fun r -> r.Reduce.rows_dominated));
       metric "reduce.cols_dominated" "count" (over_reductions (fun r -> r.Reduce.cols_dominated));
       metric "reduce.residual_rows" "count" (over_reductions (fun r -> List.length r.Reduce.remaining_rows));
       metric "reduce.residual_cols" "count" (over_reductions (fun r -> List.length r.Reduce.remaining_cols));
       metric "solve.s" "s" (secs "solve");
       metric "solve.nodes" "count" (f (counted "solve" "nodes_explored"));
       metric "solve.bound_prunes" "count" (f (counted "solve" "ilp_bound_prunes"));
       metric "flow.truncate_s" "s" (secs "truncate");
       metric "flow.verify_s" "s" (secs "verify");
       metric "flow.dropped_triplets" "count" (over_flows (fun r -> r.Flow.dropped_triplets));
       metric "artifact.prepare_warm_s" "s" (if_warm (secs "atpg"));
       metric "artifact.flow_warm_s" "s" (if_warm (secs "builder" +. secs "prebuilt"));
       metric "artifact.hits" "count" (counted_all "artifact_hits" pipeline);
       metric "artifact.misses" "count" (counted_all "artifact_misses" pipeline);
       metric "artifact.corrupt" "count" (counted_all "artifact_corrupt" pipeline);
       metric "artifact.store_bytes" "B" (f store_bytes);
       metric "artifact.read_mb_per_s" "MB/s" (if_warm (ratio (f read_bytes /. 1e6) warm_s));
     ]
    @ gc "atpg" [ "atpg" ]
    @ gc "builder" [ "builder" ]
    @ gc "solve" [ "solve" ]
    @ gc "flow" [ "truncate"; "verify"; "prebuilt" ]
    @ [
        (* The chain also makes the standalone Reduce.run and the
           Flow.verify calls, which Flow.run does not. *)
        metric "trace.overhead_s" "s"
          (chain_wall -. secs "reduce" -. secs "verify" -. reference_wall);
      ]);
  write_spans (Filename.concat out (Printf.sprintf "spans-%s-%d.json" wl.name seed));
  teardown env

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let set =
    List.filter
      (fun kv -> String.length kv > 7 && String.sub kv 0 7 = "RESEED_")
      (Array.to_list (Unix.environment ()))
  in
  if set <> [] then begin
    Printf.eprintf "ledger: refusing to run with %s set: it can change what is measured\n"
      (String.concat ", " set);
    exit 2
  end;
  let wl =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "ledger: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
        exit 2
  in
  Artifact.mkdir_p out;
  match !trace with
  | 0 -> untraced wl ~seed:!seed ~seconds:!seconds
  | 1 -> traced wl ~seed:!seed
  | n ->
      Printf.eprintf "ledger: --trace %d: expected 0 or 1\n" n;
      exit 2

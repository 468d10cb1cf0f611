(* Anytime-flow resilience: deadlines and cancellation degrade gracefully,
   interrupted matrix builds resume bit-identically from the matrixshard
   artifacts in the store (even past truncated, corrupt or stale shards),
   and pool worker failures surface structured errors instead of hanging
   or killing the pool. *)

open Reseed_core
open Reseed_fault
open Reseed_gatsby
open Reseed_netlist
open Reseed_setcover
open Reseed_tpg
open Reseed_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prepared_c17 = lazy (Suite.prepare "c17")

let mk_matrix ~cols rows =
  Matrix.of_rows ~cols (Array.of_list (List.map (Bitvec.of_list cols) rows))

let temp_counter = ref 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_store f =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reseed-resilience-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (Artifact.open_store dir))

(* --- budgets --- *)

let test_budget_latch () =
  let b = Budget.create () in
  check "live" false (Budget.expired b);
  check "check None" false (Budget.check None);
  Budget.cancel b;
  check "cancelled" true (Budget.expired b);
  check "reason" true (Budget.stop_reason b = Some Budget.Cancelled);
  let d = Budget.create ~deadline_s:(-1.0) () in
  check "past deadline" true (Budget.expired d);
  check "deadline reason" true (Budget.stop_reason d = Some Budget.Deadline);
  (* Cancel wins even after a deadline trip is possible. *)
  let e = Budget.create ~deadline_s:(-1.0) () in
  Budget.cancel e;
  check "cancel precedence" true (Budget.stop_reason e = Some Budget.Cancelled)

let test_ilp_expired_budget_returns_incumbent () =
  (* 6x6 diagonal-ish instance: solvable, but the budget is already dead,
     so the solver must hand back its greedy incumbent immediately. *)
  let m =
    mk_matrix ~cols:6
      [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 5 ]; [ 0; 5 ]; [ 1; 4 ]; [ 2; 5 ] ]
  in
  let budget = Budget.create ~deadline_s:0.0 () in
  let r = Ilp.solve ~budget m in
  check "not optimal" false r.Ilp.optimal;
  check "stop reason" true (r.Ilp.stop_reason = Ilp.Budget Budget.Deadline);
  check "incumbent covers" true (Matrix.covers m ~rows_subset:r.Ilp.selected);
  (* Same instance unconstrained is solved to optimality. *)
  let full = Ilp.solve m in
  check "unconstrained optimal" true full.Ilp.optimal;
  check "unconstrained complete" true (full.Ilp.stop_reason = Ilp.Complete);
  check "incumbent no better than optimum" true
    (List.length full.Ilp.selected <= List.length r.Ilp.selected)

let test_solution_records_degradation () =
  let m = mk_matrix ~cols:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ] in
  let budget = Budget.create ~deadline_s:0.0 () in
  (* Reduction alone can finish this instance; disable it so the solver
     actually sees the budget. *)
  let s = Solution.solve ~method_:Solution.No_reduction_exact ~budget m in
  check "valid cover" true (Solution.verify m s);
  check "degraded recorded" true s.Solution.stats.Solution.degraded;
  check "solver not optimal" false s.Solution.stats.Solution.solver_optimal;
  let live = Solution.solve ~method_:Solution.No_reduction_exact m in
  check "live not degraded" false live.Solution.stats.Solution.degraded

let test_ga_budget_stops_after_initial_cohort () =
  let problem =
    {
      Ga.init = (fun rng -> Rng.int rng 1000);
      fitness = (fun g -> float_of_int g);
      crossover = (fun _ a b -> max a b);
      mutate = (fun rng g -> g + Rng.int rng 3);
    }
  in
  let budget = Budget.create () in
  Budget.cancel budget;
  let config = { Ga.default_config with Ga.population = 8; generations = 50 } in
  let o = Ga.optimize ~config ~budget ~rng:(Rng.create 7) problem in
  check "stopped early" true o.Ga.stopped_early;
  check_int "only the initial cohort evaluated" 8 o.Ga.evaluations

let test_builder_cancelled_budget_skips_all_rows () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let budget = Budget.create () in
  Budget.cancel budget;
  let b =
    Builder.build ~budget p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets
      ~config:Builder.default_config
  in
  check_int "all rows skipped" (Array.length p.Suite.tests) b.Builder.rows_skipped;
  check "matrix rows empty" true
    (Array.for_all
       (fun i -> Bitvec.is_empty (Matrix.row b.Builder.matrix i))
       (Array.init (Matrix.rows b.Builder.matrix) Fun.id));
  (* The degraded matrix still flows through the covering pipeline. *)
  let s = Solution.solve b.Builder.matrix in
  check "solvable" true (Solution.verify b.Builder.matrix s)

let test_flow_degraded_result_is_sound () =
  let p = Lazy.force prepared_c17 in
  let tpg = Accumulator.adder 5 in
  let budget = Budget.create () in
  Budget.cancel budget;
  let r = Flow.run ~budget p.Suite.sim tpg ~tests:p.Suite.tests ~targets:p.Suite.targets in
  check "degraded" true r.Flow.degraded;
  check "stop reason" true (r.Flow.stop_reason = Some Budget.Cancelled);
  check "coverage honest" true (r.Flow.coverage_pct < 100.0);
  check "no phantom triplets" true (List.length r.Flow.final_triplets = 0)

(* --- checkpoint/resume through the artifact store's matrix shards --- *)

(* A build input: simulator, ATPG tests and target mask. *)
let c17_input () =
  let p = Lazy.force prepared_c17 in
  (p.Suite.sim, p.Suite.tests, p.Suite.targets)

let build (sim, tests, targets) tpg ?budget ?store
    ?(config = Builder.default_config) () =
  Builder.build ?budget ?store sim tpg ~tests ~targets ~config

let matrices_equal a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  && Array.for_all
       (fun i -> Bitvec.equal (Matrix.row a i) (Matrix.row b i))
       (Array.init (Matrix.rows a) Fun.id)

let stage_files store stage =
  let dir = Filename.concat (Artifact.root store) stage in
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun n -> Filename.check_suffix n ".art")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* What a build killed after publishing its shards leaves behind: the
   shards, but no whole-stage matrix artifact. *)
let drop_matrix_stage store = List.iter Sys.remove (stage_files store "matrix")

let first_shard store = List.hd (stage_files store "matrixshard")

let test_resume_roundtrip_bit_identical () =
  let p = c17_input () in
  let tpg = Accumulator.adder 5 in
  let reference = build p tpg () in
  with_temp_store (fun store ->
      let first = build p tpg ~store () in
      check_int "nothing restored on first run" 0 first.Builder.rows_restored;
      check "first run matches plain build" true
        (matrices_equal reference.Builder.matrix first.Builder.matrix);
      drop_matrix_stage store;
      let resumed = build p tpg ~store () in
      check_int "full restore"
        (Matrix.rows reference.Builder.matrix)
        resumed.Builder.rows_restored;
      check "resumed matrix bit-identical" true
        (matrices_equal reference.Builder.matrix resumed.Builder.matrix);
      check "useful cycles restored" true
        (reference.Builder.useful_cycles = resumed.Builder.useful_cycles))

(* A damaged shard fails its checksum: its rows are re-simulated, never
   trusted.  c17 fits in one shard, so nothing is restored. *)
let damaged_shard_is_resimulated damage =
  let p = c17_input () in
  let tpg = Accumulator.adder 5 in
  let reference = build p tpg () in
  with_temp_store (fun store ->
      ignore (build p tpg ~store ());
      drop_matrix_stage store;
      damage (first_shard store);
      let resumed = build p tpg ~store () in
      check_int "damaged shard dropped" 0 resumed.Builder.rows_restored;
      check "matrix still bit-identical" true
        (matrices_equal reference.Builder.matrix resumed.Builder.matrix))

let test_resume_truncated_shard_is_resimulated () =
  damaged_shard_is_resimulated (fun shard ->
      (* Kill mid-write: cut the shard inside its payload. *)
      let size = (Unix.stat shard).Unix.st_size in
      let fd = Unix.openfile shard [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd)

let test_resume_flipped_shard_is_resimulated () =
  damaged_shard_is_resimulated (fun shard ->
      (* Flip the low bit of the last payload byte: the checksum must
         catch it. *)
      let fd = Unix.openfile shard [ Unix.O_RDWR ] 0 in
      let last = (Unix.fstat fd).Unix.st_size - 1 in
      ignore (Unix.lseek fd last Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      ignore (Unix.lseek fd last Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd)

let test_resume_other_cycles_restores_nothing () =
  let p = c17_input () in
  let tpg = Accumulator.adder 5 in
  with_temp_store (fun store ->
      ignore (build p tpg ~store ());
      drop_matrix_stage store;
      (* Different evolution length → different matrix fingerprint → the
         stored shards describe another build and must not be restored. *)
      let config = { Builder.default_config with Builder.cycles = 40 } in
      let other = build p tpg ~store ~config () in
      check_int "stale shards not restored" 0 other.Builder.rows_restored;
      let reference = build p tpg ~config () in
      check "fresh matrix correct" true
        (matrices_equal reference.Builder.matrix other.Builder.matrix))

(* Row codec compatibility.  A matrixshard payload is [u32 rows], then
   per row [u32 useful] and a tagged row: tag 0 + [Codec.bitvec] is the
   only form written; tag 1 (a sparse index list: u32 length, u32 count,
   u32 per index) was also written by older builds and must now be
   treated as corrupt and recomputed. *)
let shard_payload ~tagged_row (b : Builder.t) =
  let buf = Buffer.create 256 in
  let n = Matrix.rows b.Builder.matrix in
  Artifact.Codec.u32 buf n;
  for i = 0 to n - 1 do
    Artifact.Codec.u32 buf b.Builder.useful_cycles.(i);
    tagged_row buf (Matrix.row b.Builder.matrix i)
  done;
  Buffer.contents buf

let dense_row buf v =
  Buffer.add_char buf '\000';
  Artifact.Codec.u32 buf (Bitvec.length v);
  Buffer.add_bytes buf (Bitvec.to_bytes v)

let sparse_row buf v =
  Buffer.add_char buf '\001';
  Artifact.Codec.u32 buf (Bitvec.length v);
  Artifact.Codec.u32 buf (Bitvec.count v);
  Bitvec.iter_ones (Artifact.Codec.u32 buf) v

let test_sparse_tagged_shard_is_recomputed () =
  let ((sim, tests, targets) as p) = c17_input () in
  let tpg = Accumulator.adder 5 in
  let config = Builder.default_config in
  let reference = build p tpg () in
  let n = Matrix.rows reference.Builder.matrix in
  (* c17 fits in one shard: rows [0, n). *)
  let shard_fp =
    let base =
      Builder.fingerprint ~fault_model:(Fault_sim.model sim) ~tests ~targets tpg
        ~config
    in
    Fingerprint.(int (int base 0) n)
  in
  let corrupt = Metrics.counter "artifact_corrupt" in
  with_temp_store (fun store ->
      ignore (build p tpg ~store ());
      check "shard key" true
        (first_shard store = Artifact.path store ~stage:"matrixshard" shard_fp);
      check "written shard = tag 0 + packed bits" true
        (Artifact.load store ~stage:"matrixshard" shard_fp
        = Some (shard_payload ~tagged_row:dense_row reference));
      drop_matrix_stage store;
      Artifact.save store ~stage:"matrixshard" shard_fp
        (shard_payload ~tagged_row:sparse_row reference);
      let before = Metrics.value corrupt in
      let rebuilt = build p tpg ~store () in
      check_int "tag-1 shard counted corrupt" 1 (Metrics.value corrupt - before);
      check_int "nothing restored" 0 rebuilt.Builder.rows_restored;
      check "rows re-simulated" true (rebuilt.Builder.fault_sims > 0);
      check "recomputed matrix = cold build" true
        (matrices_equal reference.Builder.matrix rebuilt.Builder.matrix);
      (* The recompute overwrote the shard; it restores every row. *)
      drop_matrix_stage store;
      let restored = build p tpg ~store () in
      check_int "all rows restored" n restored.Builder.rows_restored;
      check_int "no simulations" 0 restored.Builder.fault_sims;
      check "restored matrix = cold build" true
        (matrices_equal reference.Builder.matrix restored.Builder.matrix);
      check "useful cycles restored" true
        (reference.Builder.useful_cycles = restored.Builder.useful_cycles))

(* Forty rows — three shards — over a small generated circuit. *)
let forty_row_input () =
  let spec =
    { (Generator.default_spec "resume" ~inputs:8 ~outputs:3 ~gates:60)
      with Generator.seed = 4242 }
  in
  let c = Generator.generate spec in
  let faults = Fault.all c in
  let rng = Rng.create 7 in
  let targets = Bitvec.create (Array.length faults) in
  Bitvec.fill_all targets;
  ( Fault_sim.create c faults,
    Array.init 40 (fun _ -> Array.init 8 (fun _ -> Rng.bool rng)),
    targets )

let test_resume_after_cancel_bit_identical () =
  (* Cancel the build part-way through its second shard — the TPG trips
     the budget after seventeen bursts' worth of steps, past the first
     shard's sixteen rows — then rerun against the same store without a budget: only the first
     shard is restored, and D and the final solution must match an
     uninterrupted run. *)
  let p = forty_row_input () in
  let tpg = Accumulator.adder 8 in
  let reference = build p tpg () in
  let ref_solution = Solution.solve reference.Builder.matrix in
  with_temp_store (fun store ->
      let budget = Budget.create () in
      let steps = Atomic.make 0 in
      let tripping =
        {
          tpg with
          Tpg.step =
            (fun ~state ~operand ->
              if Atomic.fetch_and_add steps 1 = 17 * Builder.default_config.cycles
              then Budget.cancel budget;
              tpg.Tpg.step ~state ~operand);
        }
      in
      let partial = build p tripping ~budget ~store () in
      check "interrupted run incomplete" true (partial.Builder.rows_skipped > 0);
      let resumed = build p tpg ~store () in
      check_int "first shard restored" 16 resumed.Builder.rows_restored;
      check_int "no rows skipped after resume" 0 resumed.Builder.rows_skipped;
      check "resumed D bit-identical" true
        (matrices_equal reference.Builder.matrix resumed.Builder.matrix);
      let resumed_solution = Solution.solve resumed.Builder.matrix in
      check "identical solution rows" true
        (ref_solution.Solution.rows = resumed_solution.Solution.rows))

(* --- pool failure containment --- *)

let test_pool_task_error_context () =
  Pool.with_pool ~jobs:3 (fun pool ->
      match
        Pool.parallel_for ~pool ~chunk:4 ~label:"resilience probe" ~total:20
          (fun ~worker:_ ~lo ~hi:_ -> if lo = 8 then invalid_arg "injected")
      with
      | () -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error { label; lo; hi; attempts; exn; _ } ->
          check "label" true (label = "resilience probe");
          check_int "chunk lo" 8 lo;
          check_int "chunk hi" 12 hi;
          check_int "attempted twice" 2 attempts;
          check "underlying exn" true (exn = Invalid_argument "injected"))

let test_pool_transient_failure_retried () =
  (* Fails the first attempt of one chunk only; the retry must succeed and
     the overall region complete with correct results. *)
  let attempts = Array.init 32 (fun _ -> Atomic.make 0) in
  let out = Array.make 32 0 in
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.parallel_for ~pool ~chunk:1 ~label:"transient" ~total:32
        (fun ~worker:_ ~lo ~hi ->
          for i = lo to hi - 1 do
            if i = 13 && Atomic.fetch_and_add attempts.(i) 1 = 0 then
              failwith "transient glitch";
            out.(i) <- i * 3
          done));
  check "result correct" true (out = Array.init 32 (fun i -> i * 3));
  check_int "failed chunk ran twice" 2 (Atomic.get attempts.(13))

let test_pool_inline_jobs_one_retries_too () =
  let tries = Atomic.make 0 in
  Pool.with_pool ~jobs:1 (fun pool ->
      Pool.parallel_for ~pool ~total:4 (fun ~worker:_ ~lo ~hi:_ ->
          if lo = 0 && Atomic.fetch_and_add tries 1 = 0 then failwith "once"))

(* --- parser diagnostics --- *)

let expect_error f =
  match f () with
  | _ -> Alcotest.fail "expected Reseed_error"
  | exception Error.Reseed_error e -> e

let test_bench_io_error_coordinates () =
  let e =
    expect_error (fun () ->
        Bench_io.parse ~file:"x.bench" ~name:"x" "INPUT(a)\nOUTPUT(y)\ny = NOT(q)\n")
  in
  check "input code" true (e.Error.code = Error.Input_error);
  check "file recorded" true (e.Error.file = Some "x.bench");
  check "line of the bad reference" true (e.Error.line = Some 3);
  let loop =
    expect_error (fun () ->
        Bench_io.parse ~name:"l" "INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = NOT(y)\n")
  in
  check "loop has a line" true (loop.Error.line <> None);
  let rendered = Error.to_string e in
  check "rendered coordinates" true
    (String.length rendered > String.length "x.bench:3:"
    && String.sub rendered 0 10 = "x.bench:3:")

let test_bench_io_bad_syntax_line () =
  let e =
    expect_error (fun () ->
        Bench_io.parse ~name:"s" "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n")
  in
  check_int "syntax error line"
    3
    (match e.Error.line with Some l -> l | None -> -1)

let test_unknown_circuit_error () =
  let e = expect_error (fun () -> Library.load "z9999") in
  check "input code" true (e.Error.code = Error.Input_error);
  check "names listed" true
    (let m = e.Error.message in
     let has_sub needle =
       let nl = String.length needle and ml = String.length m in
       let rec go i = i + nl <= ml && (String.sub m i nl = needle || go (i + 1)) in
       go 0
     in
     has_sub "c432" && has_sub "z9999")

let suite =
  [
    ( "resilience",
      [
        Alcotest.test_case "budget latch + precedence" `Quick test_budget_latch;
        Alcotest.test_case "ilp: expired budget → incumbent" `Quick
          test_ilp_expired_budget_returns_incumbent;
        Alcotest.test_case "solution: degradation recorded" `Quick
          test_solution_records_degradation;
        Alcotest.test_case "ga: budget stops after first cohort" `Quick
          test_ga_budget_stops_after_initial_cohort;
        Alcotest.test_case "builder: cancelled budget skips rows" `Quick
          test_builder_cancelled_budget_skips_all_rows;
        Alcotest.test_case "flow: degraded result is sound" `Quick
          test_flow_degraded_result_is_sound;
        Alcotest.test_case "checkpoint: roundtrip bit-identical" `Quick
          test_resume_roundtrip_bit_identical;
        Alcotest.test_case "checkpoint: truncated chunk re-simulated" `Quick
          test_resume_truncated_shard_is_resimulated;
        Alcotest.test_case "checkpoint: corrupt payload re-simulated" `Quick
          test_resume_flipped_shard_is_resimulated;
        Alcotest.test_case "checkpoint: fingerprint mismatch restores nothing" `Quick
          test_resume_other_cycles_restores_nothing;
        Alcotest.test_case "checkpoint: interrupt + resume = uninterrupted" `Quick
          test_resume_after_cancel_bit_identical;
        Alcotest.test_case "checkpoint: sparse-tagged shard recomputed" `Quick
          test_sparse_tagged_shard_is_recomputed;
        Alcotest.test_case "pool: task error carries context" `Quick
          test_pool_task_error_context;
        Alcotest.test_case "pool: transient failure retried once" `Quick
          test_pool_transient_failure_retried;
        Alcotest.test_case "pool: inline path retries too" `Quick
          test_pool_inline_jobs_one_retries_too;
        Alcotest.test_case "bench_io: file:line diagnostics" `Quick
          test_bench_io_error_coordinates;
        Alcotest.test_case "bench_io: syntax error line" `Quick
          test_bench_io_bad_syntax_line;
        Alcotest.test_case "library: unknown circuit lists catalog" `Quick
          test_unknown_circuit_error;
      ] );
  ]

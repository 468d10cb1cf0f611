open Reseed_util

type config = {
  row_dominance : bool;
  col_dominance : bool;
  essentials : bool;
  col_dominance_limit : int;
}

let default_config =
  {
    row_dominance = true;
    col_dominance = true;
    essentials = true;
    col_dominance_limit = 6000;
  }

type result = {
  necessary : int list;
  remaining_rows : int list;
  remaining_cols : int list;
  iterations : int;
  rows_dominated : int;
  cols_dominated : int;
}

let m_iterations =
  Metrics.counter ~help:"reduction fixpoint iterations" "reduce_iterations"

let m_essential =
  Metrics.counter ~help:"rows selected as essential" "reduce_essential_rows"

let m_rows_dom =
  Metrics.counter ~help:"rows dropped by row dominance" "reduce_rows_dominated"

let m_cols_dedup =
  Metrics.counter ~help:"columns dropped as duplicates" "reduce_cols_deduped"

let m_cols_dom =
  Metrics.counter ~help:"columns dropped by column dominance" "reduce_cols_dominated"

let m_coldom_skipped =
  Metrics.counter
    ~help:"column-dominance passes skipped (instance over the column limit)"
    "reduce_coldom_skipped"

let run ?(config = default_config) ?row_weights m =
  let n_rows = Matrix.rows m and n_cols = Matrix.cols m in
  Trace.with_span "reduce.run"
    ~args:[ ("rows", string_of_int n_rows); ("cols", string_of_int n_cols) ]
  @@ fun () ->
  (match row_weights with
  | Some w when Array.length w <> n_rows ->
      invalid_arg "Reduce.run: row_weights size mismatch"
  | _ -> ());
  (* Dropping row i in favour of k is optimum-preserving only when k is
     not more expensive. *)
  let weight_ok ~dropped ~kept =
    match row_weights with
    | None -> true
    | Some w -> w.(kept) <= w.(dropped)
  in
  (* For rows with identical covers only one may be dropped; prefer the
     more expensive one, then the higher index. *)
  let tie_break ~dropped ~kept =
    match row_weights with
    | None -> dropped > kept
    | Some w -> w.(kept) < w.(dropped) || (w.(kept) = w.(dropped) && dropped > kept)
  in
  let row_active = Array.make n_rows true in
  let col_active = Array.make n_cols true in
  let col_mask = Bitvec.create n_cols in
  Bitvec.fill_all col_mask;
  (* Columns no row covers can never be satisfied: drop them up front. *)
  List.iter
    (fun j ->
      col_active.(j) <- false;
      Bitvec.clear col_mask j)
    (Matrix.uncoverable m);
  let necessary = ref [] in
  let rows_dominated = ref 0 and cols_dominated = ref 0 in
  let cols_deduped = ref 0 in
  let drop_row i = row_active.(i) <- false in
  let drop_col j =
    col_active.(j) <- false;
    Bitvec.clear col_mask j
  in
  let select_row i =
    necessary := i :: !necessary;
    drop_row i;
    Bitvec.iter_ones (fun j -> if col_active.(j) then drop_col j) (Matrix.row m i)
  in
  (* Every pass below streams row-major over the row sets: the column
     view is never materialised (beyond the bounded shard the dominance
     pass builds for at most [col_dominance_limit] columns), so peak
     memory stays O(rows + cols + shard) whatever the matrix size. *)
  let pass_essentials () =
    Trace.with_span "reduce.essentials" @@ fun () ->
    let changed = ref false in
    (* One pass over the active rows: per active column, how many active
       rows cover it and the lowest-indexed one.  Selecting a row during
       the scan below removes only columns that row covers, so the
       counts of the columns still active — which that row by definition
       does not cover — are unchanged; the snapshot stays exact for the
       whole pass. *)
    let cover_count = Array.make n_cols 0 in
    let cover_row = Array.make n_cols (-1) in
    for i = n_rows - 1 downto 0 do
      if row_active.(i) then
        Bitvec.iter_ones
          (fun j ->
            if col_active.(j) then begin
              cover_count.(j) <- cover_count.(j) + 1;
              (* Descending row scan: the last writer is the lowest row. *)
              cover_row.(j) <- i
            end)
          (Matrix.row m i)
    done;
    for j = 0 to n_cols - 1 do
      if col_active.(j) && cover_count.(j) = 1 && cover_row.(j) >= 0 then begin
        select_row cover_row.(j);
        changed := true
      end
    done;
    !changed
  in
  let active_rows () =
    let acc = ref [] in
    for i = n_rows - 1 downto 0 do
      if row_active.(i) then acc := i :: !acc
    done;
    !acc
  in
  let active_cols () =
    let acc = ref [] in
    for j = n_cols - 1 downto 0 do
      if col_active.(j) then acc := j :: !acc
    done;
    !acc
  in
  (* Row dominance drops exactly the rows that are non-maximal under the
     strict partial order "covers a subset (within the active columns)
     and is no cheaper, ties broken towards the lower index".  The order
     is transitive even with weights (a dominator is never more
     expensive than what it dominates), so the surviving set is unique —
     the streaming pass may discover drops in any order and still land
     on the sweep-to-fixpoint result of comparing all pairs. *)
  let pass_row_dominance () =
    Trace.with_span "reduce.row_dominance" @@ fun () ->
    let changed = ref false in
    let rows = Array.of_list (active_rows ()) in
    let counts =
      Array.map (fun i -> Bitvec.count_inter (Matrix.row m i) col_mask) rows
    in
    let n = Array.length rows in
    (* Identical (masked) covers first, via one hash pass: the survivor
       of each class is its cheapest, lowest-index member — the only one
       the pairwise tie-break would keep. *)
    let seen = Hashtbl.create (max 16 n) in
    for a = 0 to n - 1 do
      let i = rows.(a) in
      let key =
        Bitvec.fold_ones
          (fun acc j -> if col_active.(j) then j :: acc else acc)
          [] (Matrix.row m i)
      in
      match Hashtbl.find_opt seen key with
      | None -> Hashtbl.add seen key a
      | Some b ->
          let k = rows.(b) in
          if tie_break ~dropped:i ~kept:k && weight_ok ~dropped:i ~kept:k then begin
            drop_row i;
            incr rows_dominated;
            changed := true
          end
          else if tie_break ~dropped:k ~kept:i && weight_ok ~dropped:k ~kept:i
          then begin
            drop_row k;
            Hashtbl.replace seen key a;
            incr rows_dominated;
            changed := true
          end
    done;
    (* Strict-subset dominance among the distinct survivors.  Equal
       counts are either equal covers (already handled) or incomparable,
       so only strictly larger rows can dominate. *)
    let order = Array.init n (fun a -> a) in
    Array.sort (fun a b -> compare counts.(a) counts.(b)) order;
    let live = Array.init n (fun a -> row_active.(rows.(a))) in
    for oa = 0 to n - 1 do
      let a = order.(oa) in
      if live.(a) then begin
        let i = rows.(a) in
        let ob = ref (n - 1) in
        let dropped = ref false in
        while (not !dropped) && !ob >= 0 && counts.(order.(!ob)) > counts.(a) do
          let b = order.(!ob) in
          let k = rows.(b) in
          (* Compare against every distinct survivor of the dedup step,
             dropped later by its own dominator or not: dominance is
             transitive, so a transitive dominator always survives. *)
          if
            live.(b)
            && weight_ok ~dropped:i ~kept:k
            && Bitvec.subset_masked (Matrix.row m i) (Matrix.row m k)
                 ~mask:col_mask
          then begin
            drop_row i;
            incr rows_dominated;
            changed := true;
            dropped := true
          end;
          decr ob
        done
      end
    done;
    !changed
  in
  (* Identical columns (faults detected by exactly the same triplets) are
     rampant in detection matrices — every easy fault is covered by every
     row.  Find the exact equivalence classes by partition refinement,
     one row-major pass over the ones: columns start in one class and
     each active row splits every class it straddles.  O(ones) time,
     O(cols) memory, no transpose and no hashing of full row lists. *)
  let pass_col_dedup () =
    Trace.with_span "reduce.col_dedup" @@ fun () ->
    let changed = ref false in
    let part = Array.make n_cols 0 in
    let next_id = ref 1 in
    let renamed = Hashtbl.create 64 in
    for i = 0 to n_rows - 1 do
      if row_active.(i) then begin
        Hashtbl.reset renamed;
        Bitvec.iter_ones
          (fun j ->
            if col_active.(j) then
              match Hashtbl.find_opt renamed part.(j) with
              | Some id -> part.(j) <- id
              | None ->
                  let id = !next_id in
                  incr next_id;
                  Hashtbl.add renamed part.(j) id;
                  part.(j) <- id)
          (Matrix.row m i)
      end
    done;
    (* Classmates not covered by a row keep the old id while the covered
       ones move to a fresh one, so equal final ids <=> equal active-row
       sets.  First-seen (lowest index) of each class survives. *)
    let seen = Hashtbl.create 1024 in
    for j = 0 to n_cols - 1 do
      if col_active.(j) then
        if Hashtbl.mem seen part.(j) then begin
          drop_col j;
          incr cols_deduped;
          changed := true
        end
        else Hashtbl.add seen part.(j) ()
    done;
    !changed
  in
  let pass_col_dominance () =
    Trace.with_span "reduce.col_dominance" @@ fun () ->
    let cols = Array.of_list (active_cols ()) in
    let n = Array.length cols in
    (* The comparisons below are quadratic in active columns; beyond the
       configured limit the pass is skipped for the iteration
       (essentiality and row dominance will usually shrink the instance
       below it). *)
    if n > config.col_dominance_limit then begin
      Metrics.incr m_coldom_skipped;
      Trace.instant "reduce.col_dominance_skipped"
        ~args:
          [
            ("cols", string_of_int n);
            ("limit", string_of_int config.col_dominance_limit);
          ];
      false
    end
    else begin
      let changed = ref false in
      (* One-shot transposed shard restricted to the surviving columns —
         at most [col_dominance_limit] x rows bits — filled in a single
         row-major pass over the active rows. *)
      let pos = Hashtbl.create (max 16 n) in
      Array.iteri (fun a j -> Hashtbl.replace pos j a) cols;
      let colbits = Array.init n (fun _ -> Bitvec.create n_rows) in
      for i = 0 to n_rows - 1 do
        if row_active.(i) then
          Bitvec.iter_ones
            (fun j ->
              match Hashtbl.find_opt pos j with
              | Some a -> Bitvec.unsafe_set colbits.(a) i
              | None -> ())
            (Matrix.row m i)
      done;
      let counts = Array.map Bitvec.count colbits in
      for a = 0 to n - 1 do
        let c2 = cols.(a) in
        if col_active.(c2) then
          for bidx = 0 to n - 1 do
            let c1 = cols.(bidx) in
            if
              c1 <> c2 && col_active.(c2) && col_active.(c1)
              && counts.(bidx) <= counts.(a)
            then
              (* rows(c1) ⊆ rows(c2): covering c1 implies covering c2. *)
              if
                Bitvec.subset colbits.(bidx) colbits.(a)
                && (counts.(bidx) < counts.(a) || c2 > c1)
              then begin
                drop_col c2;
                incr cols_dominated;
                changed := true
              end
          done
      done;
      !changed
    end
  in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue do
    incr iterations;
    let c1 = if config.essentials then pass_essentials () else false in
    let c2 = if config.row_dominance then pass_row_dominance () else false in
    let c3 =
      if config.col_dominance then begin
        let deduped = pass_col_dedup () in
        pass_col_dominance () || deduped
      end
      else false
    in
    continue := c1 || c2 || c3
  done;
  (* Rows left with no active column contribute nothing. *)
  List.iter
    (fun i ->
      if Bitvec.count_inter (Matrix.row m i) col_mask = 0 then drop_row i)
    (active_rows ());
  Metrics.add m_iterations !iterations;
  Metrics.add m_essential (List.length !necessary);
  Metrics.add m_rows_dom !rows_dominated;
  Metrics.add m_cols_dedup !cols_deduped;
  Metrics.add m_cols_dom !cols_dominated;
  {
    necessary = List.rev !necessary;
    remaining_rows = active_rows ();
    remaining_cols = active_cols ();
    iterations = !iterations;
    rows_dominated = !rows_dominated;
    (* Duplicate and dominated columns have always been reported together
       in this field; the metrics registry splits them. *)
    cols_dominated = !cols_deduped + !cols_dominated;
  }

let residual m result =
  let rows = Array.of_list result.remaining_rows in
  let cols = Array.of_list result.remaining_cols in
  let col_index = Hashtbl.create (Array.length cols) in
  Array.iteri (fun idx j -> Hashtbl.replace col_index j idx) cols;
  let sub = Matrix.create ~rows:(Array.length rows) ~cols:(Array.length cols) in
  Array.iteri
    (fun ri i ->
      Bitvec.iter_ones
        (fun j ->
          match Hashtbl.find_opt col_index j with
          | Some cj -> Matrix.set sub ~row:ri ~col:cj
          | None -> ())
        (Matrix.row m i))
    rows;
  (sub, rows, cols)

let cover_of m rows =
  let u = Bitvec.create (Matrix.cols m) in
  List.iter (fun i -> Bitvec.union_into ~into:u (Matrix.row m i)) rows;
  u

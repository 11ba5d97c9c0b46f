module M = Parqo_machine.Machine
module Op = Parqo_optree.Op
module Est = Parqo_plan.Estimator

let log2 x = log x /. log 2.

(* [Vecf.fmax], local so that it inlines rather than boxing its floats
   across a module compiled [-opaque] *)
let fmax (a : float) (b : float) = if a >= b then a else b

let child n i =
  match List.nth_opt n.Op.children i with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "Opcost: %s lacks child %d" (Op.kind_name n.Op.kind) i)

let prepare machine est =
  let n = Parqo_query.Query.n_relations (Est.query est) in
  Placement.prepare machine ~tables:(Array.init n (Est.table_of est))

let nl_inner_is_free node =
  match node.Op.kind with
  | Op.Nl_join -> (
    match (child node 1).Op.kind with Op.Index_scan _ -> true | _ -> false)
  | _ -> false

(* Demand accumulation runs directly on a per-resource work row: a
   fresh array that [Rvec.of_accumulated] then adopts ([base]), or a
   slot of a descriptor store ([base_row]), at offset [o].  Every
   resource id receives at most one demand per operator (the id groups —
   executing CPUs, data disks, spill disks, network — are pairwise
   disjoint within each branch), so the accumulated row is equal, bit
   for bit, to the one [Rvec.of_demands] would have built from the
   equivalent demand list. *)

(* the accumulation helpers are top-level (taking [work] explicitly)
   rather than closures inside [accumulate]: it runs once per operator
   of every costed candidate, and half a dozen closure allocations per
   call were visible in the optimizer's words-per-plan profile.

   Each resource's share is divided by its speed — demand vectors are in
   nominal-speed time units, so a half-speed disk takes twice as long
   over the same pages.  Division by 1.0 is exact in IEEE arithmetic,
   which is what keeps an all-nominal machine bit-identical to the
   pre-speed model. *)
let spread work o speeds ids w =
  let n = Array.length ids in
  if n > 0 then begin
    let share = w /. float_of_int n in
    for i = 0 to n - 1 do
      work.(o + ids.(i)) <- work.(o + ids.(i)) +. (share /. speeds.(ids.(i)))
    done
  end

let spread_n work o speeds ids n_used w =
  if n_used > 0 then begin
    let share = w /. float_of_int n_used in
    for i = 0 to n_used - 1 do
      work.(o + ids.(i)) <- work.(o + ids.(i)) +. (share /. speeds.(ids.(i)))
    done
  end

let on_index_disk (pc : Placement.cache) work o (ix : Parqo_catalog.Index.t) w =
  let nd = Array.length pc.disk_ids in
  if nd > 0 then begin
    let d = pc.disk_ids.(ix.Parqo_catalog.Index.disk mod nd) in
    work.(o + d) <- work.(o + d) +. (w /. pc.speeds.(d))
  end

(* Add [node]'s demands to the zeroed row of [work] at [o] and return
   its lanes, the degree its standalone time is divided by. *)
let accumulate (pc : Placement.cache) est node work o =
  let p = pc.machine.M.params in
  let clone = node.Op.clone in
  if clone < 1 then invalid_arg "Opcost.base: clone < 1";
  let cpu_ids = pc.cpu_ids in
  let n_cpus = Array.length cpu_ids in
  let n_used = min clone n_cpus in
  let lanes = if n_cpus = 0 then 1 else n_used in
  let tpp = p.tuples_per_page in
  match node.Op.kind with
  | Op.Seq_scan { rel } ->
    let raw = Est.raw_card est rel in
    let disks = pc.disks_of_rel.(rel) in
    spread work o pc.speeds disks (raw /. tpp *. p.io_page_cost);
    spread_n work o pc.speeds cpu_ids n_used (raw *. p.cpu_tuple_cost);
    if n_cpus = 0 then max 1 (min clone (Array.length disks)) else lanes
  | Op.Index_scan { rel; index } ->
    let raw = Est.raw_card est rel in
    let penalty =
      if index.Parqo_catalog.Index.clustered then 1. else p.unclustered_penalty
    in
    on_index_disk pc work o index
      (raw /. tpp *. p.index_page_factor *. penalty *. p.io_page_cost);
    spread_n work o pc.speeds cpu_ids n_used (raw *. p.cpu_tuple_cost);
    lanes
  | Op.Sort _ ->
    let n = (child node 0).Op.out_card in
    let per_lane = fmax 1. (n /. float_of_int lanes) in
    spread_n work o pc.speeds cpu_ids n_used
      (n *. log2 (fmax 2. per_lane) *. p.cpu_compare_cost);
    if per_lane > p.sort_memory_tuples then
      spread work o pc.speeds pc.spill.(n_used)
        (2. *. (n /. tpp) *. p.io_page_cost);
    lanes
  | Op.Merge_join ->
    let outer = (child node 0).Op.out_card and inner = (child node 1).Op.out_card in
    spread_n work o pc.speeds cpu_ids n_used
      (((outer +. inner) *. p.cpu_compare_cost)
      +. (node.Op.out_card *. p.cpu_tuple_cost));
    lanes
  | Op.Hash_build ->
    let n = (child node 0).Op.out_card in
    let per_lane = n /. float_of_int lanes in
    spread_n work o pc.speeds cpu_ids n_used (n *. p.cpu_hash_cost);
    (* a build larger than per-clone memory Grace-partitions to disk:
       one write and one read pass over the build input *)
    if per_lane > p.hash_memory_tuples then
      spread work o pc.speeds pc.spill.(n_used)
        (2. *. (n /. tpp) *. p.io_page_cost);
    lanes
  | Op.Hash_probe ->
    let outer = (child node 0).Op.out_card in
    let build_per_lane = (child node 1).Op.out_card /. float_of_int lanes in
    spread_n work o pc.speeds cpu_ids n_used
      ((outer *. p.cpu_hash_cost) +. (node.Op.out_card *. p.cpu_tuple_cost));
    (* when the build spilled, the probe input is partitioned too *)
    if build_per_lane > p.hash_memory_tuples then
      spread work o pc.speeds pc.spill.(n_used)
        (2. *. (outer /. tpp) *. p.io_page_cost);
    lanes
  | Op.Nl_join ->
    let outer = (child node 0).Op.out_card in
    let inner = child node 1 in
    let result_cpu = node.Op.out_card *. p.cpu_tuple_cost in
    (match inner.Op.kind with
    | Op.Index_scan { index; _ } ->
      (* index nested loops: probe the index once per outer tuple *)
      on_index_disk pc work o index
        (outer *. p.nl_index_probe_io *. p.io_page_cost);
      spread_n work o pc.speeds cpu_ids n_used
        ((outer *. p.cpu_hash_cost) +. result_cpu)
    | Op.Create_index _ ->
      (* probe the temporary index, in memory *)
      spread_n work o pc.speeds cpu_ids n_used
        ((outer *. p.cpu_hash_cost) +. result_cpu)
    | _ ->
      (* pure nested loops over a once-computed, memory-resident inner *)
      spread_n work o pc.speeds cpu_ids n_used
        ((outer *. inner.Op.out_card *. p.cpu_compare_cost) +. result_cpu));
    lanes
  | Op.Create_index _ ->
    let n = (child node 0).Op.out_card in
    spread_n work o pc.speeds cpu_ids n_used
      ((n *. log2 (fmax 2. n) *. p.cpu_compare_cost) +. (n *. p.cpu_hash_cost));
    lanes
  | Op.Exchange _ ->
    let n = node.Op.out_card in
    spread_n work o pc.speeds cpu_ids n_used (2. *. n *. p.cpu_tuple_cost);
    (match pc.network_id with
    | Some r ->
      work.(o + r) <- work.(o + r) +. (n *. p.net_tuple_cost /. pc.speeds.(r))
    | None -> ());
    lanes

(* sort, hash build and index creation emit nothing before they finish *)
let blocks node =
  match node.Op.kind with
  | Op.Sort _ | Op.Hash_build | Op.Create_index _ -> true
  | _ -> false

let base (pc : Placement.cache) est node =
  let work = Array.make pc.dim 0. in
  let lanes = accumulate pc est node work 0 in
  let usage =
    Rvec.of_accumulated work ~lanes
      ~overhead:pc.machine.M.params.clone_overhead
  in
  if blocks node then Descriptor.blocking usage
  else Descriptor.atomic_with ~zero:pc.zero_usage usage

let base_row (pc : Placement.cache) est node rows k =
  let work = Descriptor.row_work rows and o = k * pc.dim in
  Array.fill work o pc.dim 0.;
  let lanes = accumulate pc est node work o in
  Descriptor.usage_row rows k ~lanes
    ~overhead:pc.machine.M.params.clone_overhead ~blocking:(blocks node)

(* One kernel x scheme through the mapping pipeline, two ways.

   [untraced] is what a user runs: [Mapping.compile] then
   [Mapping.simulate].  [traced] makes the same public calls that
   [Mapping.compile] makes for the scheme (default parameters, dense
   streams), each wrapped in a span named after its layer, and then
   simulates the phases under an "engine" span.  Both return the same
   summary, which the benchmark checks against the pinned outputs, so
   the traced replica cannot drift from the real pipeline unnoticed. *)

open Ctam_arch
open Ctam_ir
open Ctam_blocks
open Ctam_deps
open Ctam_cachesim
open Ctam_core

type summary = {
  groups : int;  (** sum over nests of [nest_info.num_groups] *)
  rounds : int;
  edges : int;
  accesses : int;
  cycles : int;
  mem : int;
}

let summary_of (infos : Mapping.nest_info list) (stats : Stats.t) =
  let sum f = List.fold_left (fun a i -> a + f i) 0 infos in
  {
    groups = sum (fun i -> i.Mapping.num_groups);
    rounds = sum (fun i -> i.Mapping.num_rounds);
    edges = sum (fun i -> i.Mapping.dep_edges);
    accesses = stats.Stats.total_accesses;
    cycles = stats.Stats.cycles;
    mem = stats.Stats.mem_accesses;
  }

type timing = { compile_s : float; simulate_s : float }

let untraced scheme ~machine program =
  let t0 = Unix.gettimeofday () in
  let c = Mapping.compile scheme ~machine program in
  let t1 = Unix.gettimeofday () in
  let stats = Mapping.simulate c in
  let t2 = Unix.gettimeofday () in
  ( summary_of c.Mapping.infos stats,
    { compile_s = t1 -. t0; simulate_s = t2 -. t1 } )

(* --- the traced replica ----------------------------------------------- *)

let span = Span.with_

let run_engine h phases =
  let stats = span "engine" (fun () -> Engine.run_streams h phases) in
  Span.count "engine.accesses" stats.Stats.total_accesses;
  Span.count "engine.cycles" stats.Stats.cycles;
  Span.count "engine.mem_accesses" stats.Stats.mem_accesses;
  stats

let line_size topo =
  match Topology.caches topo with
  | p :: _ -> p.Topology.line
  | [] -> invalid_arg "Pipeline.line_size: no caches"

let grouping ~block_size ~line ~max_groups program nest =
  let bm, _ =
    span "blocks" (fun () -> Block_map.for_program ~block_size ~line program)
  in
  let g = span "blocks" (fun () -> Tags.group_capped ~max_groups nest bm) in
  Span.count "blocks.groups" (Array.length g.Tags.groups);
  let dg0 = span "deps" (fun () -> Group_deps.compute g) in
  let groups, dag =
    if Dep_graph.is_empty dg0 then (g.Tags.groups, dg0)
    else span "deps" (fun () -> Group_deps.merge_cycles g dg0)
  in
  Span.count "deps.edges" (Dep_graph.num_edges dag);
  Span.count "deps.groups_merged"
    (Array.length g.Tags.groups - Array.length groups);
  (groups, dag)

let schedule ~alpha ~beta topo assignment dag =
  let s =
    span "schedule" (fun () -> Schedule.run ~alpha ~beta topo assignment dag)
  in
  Span.count "schedule.rounds" (Schedule.num_rounds s);
  s

let schedule_phases ~with_barriers layout nest sched =
  span "trace" (fun () ->
      let tr gs = Engine.dense (Trace.of_groups layout nest gs) in
      if with_barriers then List.map (Array.map tr) sched.Schedule.rounds
      else [ Array.map tr (Schedule.per_core sched) ])

(* Base and Base+ on a nest that may carry dependences: the default
   chunks, scheduled with dependence-only order and barriers. *)
let synchronized_base ~grp ~topo nest layout =
  let groups, dag = grp nest in
  let assignment =
    span "baselines" (fun () -> Baselines.default_assignment ~topo groups)
  in
  let sched = schedule ~alpha:0. ~beta:0. topo assignment dag in
  ( (Array.length groups, Schedule.num_rounds sched, Dep_graph.num_edges dag),
    schedule_phases ~with_barriers:true layout nest sched )

let base_plus ~topo ~n nest layout =
  let chunks = span "baselines" (fun () -> Baselines.block_partition ~n nest) in
  let perm = span "baselines" (fun () -> Permute.best_order layout nest) in
  let t0 =
    span "baselines" (fun () ->
        Tiling.choose_tile ~l1_bytes:(Mapping.l1_capacity topo) layout nest)
  in
  let phase_for tile_opt =
    Array.map
      (fun iters ->
        let ordered =
          span "baselines" (fun () ->
              match tile_opt with
              | None -> Permute.sort_iters perm iters
              | Some edge ->
                  Tiling.apply ~tile:(Tiling.uniform (Nest.depth nest) edge)
                    ~perm iters)
        in
        span "trace" (fun () ->
            Engine.dense (Trace.of_iters layout nest ordered)))
      chunks
  in
  (* Tile search: the candidate that simulates fastest, first on ties. *)
  let h = span "engine" (fun () -> Hierarchy.create topo) in
  List.map
    (fun t ->
      let phase = phase_for t in
      ((run_engine h [ phase ]).Stats.cycles, phase))
    [ None; Some t0; Some (max 4 (t0 / 2)) ]
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.hd |> snd

let traced scheme ~machine program =
  let p = Mapping.default_params in
  let n = machine.Topology.num_cores in
  let block_size = p.Mapping.block_size and line = line_size machine in
  let _, layout =
    span "blocks" (fun () -> Block_map.for_program ~block_size ~line program)
  in
  let grp =
    grouping ~block_size ~line ~max_groups:p.Mapping.max_groups program
  in
  let infos = ref [] in
  let info (groups, rounds, edges) =
    infos :=
      {
        Mapping.nest_name = "";
        num_groups = groups;
        num_rounds = rounds;
        dep_edges = edges;
        used_block_size = block_size;
      }
      :: !infos
  in
  let nest_phases nest =
    if not nest.Nest.parallel then begin
      let phase = Array.make n (Engine.dense [||]) in
      phase.(0) <-
        span "trace" (fun () -> Engine.dense (Trace.serial layout nest));
      info (1, 1, 0);
      [ phase ]
    end
    else
      match scheme with
      | (Mapping.Base | Mapping.Base_plus) when Dep_test.nest_may_carry_deps nest
        ->
          let i, phases = synchronized_base ~grp ~topo:machine nest layout in
          info i;
          phases
      | Mapping.Base ->
          let chunks =
            span "baselines" (fun () -> Baselines.block_partition ~n nest)
          in
          info (n, 1, 0);
          [
            span "trace" (fun () ->
                Array.map
                  (fun iters -> Engine.dense (Trace.of_iters layout nest iters))
                  chunks);
          ]
      | Mapping.Base_plus ->
          info (n, 1, 0);
          [ base_plus ~topo:machine ~n nest layout ]
      | Mapping.Local | Mapping.Topology_aware | Mapping.Combined ->
          let groups, dag = grp nest in
          let assignment =
            match scheme with
            | Mapping.Local ->
                span "baselines" (fun () ->
                    Baselines.default_assignment ~topo:machine groups)
            | _ ->
                let a =
                  span "distribute" (fun () ->
                      Distribute.run
                        ~balance_threshold:p.Mapping.balance_threshold
                        ~dependence_mode:p.Mapping.dependence_mode
                        ~dep_graph:dag machine groups)
                in
                Span.count "distribute.pieces"
                  (Array.fold_left (fun a l -> a + List.length l) 0 a);
                a
          in
          let alpha, beta =
            if scheme = Mapping.Topology_aware then (0., 0.)
            else (p.Mapping.alpha, p.Mapping.beta)
          in
          let sched = schedule ~alpha ~beta machine assignment dag in
          let with_barriers = not (Dep_graph.is_empty dag) in
          info
            ( Array.length groups,
              (if with_barriers then Schedule.num_rounds sched else 1),
              Dep_graph.num_edges dag );
          schedule_phases ~with_barriers layout nest sched
  in
  let phases = List.concat_map nest_phases program.Program.nests in
  Span.count "trace.accesses"
    (List.fold_left
       (fun a ph ->
         Array.fold_left (fun a s -> a + Engine.stream_length s) a ph)
       0 phases);
  let h = span "engine" (fun () -> Hierarchy.create machine) in
  summary_of !infos (run_engine h phases)

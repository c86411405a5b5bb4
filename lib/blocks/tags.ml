open Ctam_poly
open Ctam_ir

type grouping = {
  nest : Nest.t;
  block_map : Block_map.t;
  encoder : Iterset.encoder;
  groups : Iter_group.t array;
}

let blocks_of_iteration bm nest iv =
  let layout = Block_map.layout bm in
  let blocks =
    List.map
      (fun r -> Block_map.block_of_addr bm (Layout.ref_addr layout r iv))
      (Nest.refs nest)
  in
  List.sort_uniq compare blocks

let tag_of_iteration bm nest iv =
  Bitset.of_list (Block_map.num_blocks bm) (blocks_of_iteration bm nest iv)

(* Phase 1: walks the domain once, strip-mining the sequential
   iteration order into units of [unit] consecutive iterations.
   Returns each unit's sorted touched blocks and member keys, units in
   the order of their first iteration. *)
let units ~unit ~encoder nest bm =
  let addrs =
    Array.of_list
      (List.map (Layout.ref_addr_fn (Block_map.layout bm)) (Nest.refs nest))
  in
  let acc = ref [] in
  let unit_blocks = ref [] and unit_keys = ref [] and unit_n = ref 0 in
  let flush () =
    if !unit_n > 0 then begin
      acc := (List.sort_uniq compare !unit_blocks, !unit_keys) :: !acc;
      unit_blocks := [];
      unit_keys := [];
      unit_n := 0
    end
  in
  Domain.iter
    (fun iv ->
      Array.iter
        (fun addr ->
          unit_blocks := Block_map.block_of_addr bm (addr iv) :: !unit_blocks)
        addrs;
      unit_keys := Iterset.encode encoder iv :: !unit_keys;
      incr unit_n;
      if !unit_n >= unit then flush ())
    nest.Nest.domain;
  flush ();
  List.rev !acc

(* Merges units into iteration-space tiles: iterations with equal
   [iv.(k) / tile.(k)] share a tile.  A unit's tile follows from any of
   its keys when the units are single iterations or tiles whose edges
   divide [tile]'s (truncating division composes: [iv / e / f =
   iv / (e f)]).  A tile's first iteration is its first unit's, so
   tiles come out in the order a walk would meet them. *)
let tiles ~encoder ~tile units =
  let by_tile : (int list, int list ref * int list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  let order = ref [] in
  List.iter
    (fun (blocks, keys) ->
      let iv = Iterset.decode encoder (List.hd keys) in
      let tcoord = List.init (Array.length iv) (fun k -> iv.(k) / tile.(k)) in
      let bl, kl =
        match Hashtbl.find_opt by_tile tcoord with
        | Some cell -> cell
        | None ->
            let cell = (ref [], ref []) in
            Hashtbl.add by_tile tcoord cell;
            order := tcoord :: !order;
            cell
      in
      bl := List.rev_append blocks !bl;
      kl := List.rev_append keys !kl)
    units;
  List.rev !order
  |> List.map (fun tc ->
         let bl, kl = Hashtbl.find by_tile tc in
         (List.sort_uniq compare !bl, !kl))

(* Phase 2: buckets units by tag equality.  Returns the distinct tags
   (sorted block lists) in first-seen order, each with its units' key
   lists. *)
let tag_classes units =
  let by_blocks : (int list, int list list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (blocks, keys) ->
      match Hashtbl.find_opt by_blocks blocks with
      | Some cell -> cell := keys :: !cell
      | None ->
          let cell = ref [ keys ] in
          Hashtbl.add by_blocks blocks cell;
          order := (blocks, cell) :: !order)
    units;
  List.rev !order

(* Builds the groups, one per tag class; [Iterset.of_keys] sorts, so
   the order keys were accumulated in does not matter. *)
let grouping_of_classes ~encoder nest bm classes =
  let n = Block_map.num_blocks bm in
  let groups =
    List.mapi
      (fun id (blocks, cell) ->
        {
          Iter_group.id;
          tag = Bitset.of_list n blocks;
          iters = Iterset.of_keys encoder (Array.of_list (List.concat !cell));
        })
      classes
    |> Array.of_list
  in
  { nest; block_map = bm; encoder; groups }

let group ?(unit = 1) ?tile nest bm =
  if unit < 1 then invalid_arg "Tags.group: unit";
  let encoder = Iterset.encoder_of_domain nest.Nest.domain in
  let units =
    match tile with
    | None -> units ~unit ~encoder nest bm
    | Some t ->
        if Array.length t <> Nest.depth nest then
          invalid_arg "Tags.group: tile length";
        Array.iter (fun e -> if e < 1 then invalid_arg "Tags.group: tile") t;
        tiles ~encoder ~tile:t (units ~unit:1 ~encoder nest bm)
  in
  grouping_of_classes ~encoder nest bm (tag_classes units)

let group_capped ~max_groups nest bm =
  if max_groups < 1 then invalid_arg "Tags.group_capped";
  let d = Nest.depth nest in
  let trip = Nest.trip_count nest in
  let encoder = Iterset.encoder_of_domain nest.Nest.domain in
  (* One walk at unit granularity; each doubling of the tile edge
     merges the previous edge's tiles.  Only the accepted edge's tag
     classes become groups. *)
  let rec go edge units =
    let classes = tag_classes units in
    if List.length classes <= max_groups || edge > trip then
      grouping_of_classes ~encoder nest bm classes
    else
      let edge = edge * 2 in
      go edge (tiles ~encoder ~tile:(Array.make d edge) units)
  in
  go 1 (units ~unit:1 ~encoder nest bm)

let total_iterations g =
  Array.fold_left (fun acc grp -> acc + Iter_group.size grp) 0 g.groups

let pp ppf g =
  Fmt.pf ppf "@[<v>grouping of %s: %d groups, %d iterations@,%a@]"
    g.nest.Nest.name (Array.length g.groups) (total_iterations g)
    Fmt.(array ~sep:cut Iter_group.pp)
    (Array.sub g.groups 0 (min 8 (Array.length g.groups)))

open Ctam_arch
open Ctam_blocks

let default_balance_threshold = 0.10

(* --- clusters ------------------------------------------------------ *)

type 'm cluster = {
  mutable tag : Bitset.t;      (* bitwise sum of member tags *)
  mutable members : 'm list;   (* reverse assignment order *)
  mutable size : int;          (* total iterations *)
  mutable first_key : int;     (* earliest iteration, for proximity ties *)
}

let cluster_of_group g =
  {
    tag = g.Iter_group.tag;
    members = [ g ];
    size = Iter_group.size g;
    first_key = Ctam_poly.Iterset.min_key g.Iter_group.iters;
  }

let cluster_groups c = List.rev c.members

(* --- a max-heap of candidate merges with lazy invalidation --------- *)

(* An entry is four unboxed ints: weight [w], proximity [d], the
   cluster pair and the merge count at push time (its stamp).  Entries
   live in fixed-size chunks, so growing the heap adds a chunk and
   never copies: the discarded arrays of a doubling heap outlive the
   major GC's pacing and raise peak memory.  Entries that order equal
   pop in heap-structure order, which makes the push order part of
   every plan. *)
module Heap = struct
  let chunk_bits = 12
  let chunk_mask = (1 lsl chunk_bits) - 1
  let fields = 4

  type t = { mutable chunks : int array array; mutable len : int }

  let create () = { chunks = [||]; len = 0 }
  let is_empty h = h.len = 0
  let chunk h i = h.chunks.(i lsr chunk_bits)
  let off i = (i land chunk_mask) * fields
  let weight h i = (chunk h i).(off i)
  let prox h i = (chunk h i).(off i + 1)

  (* Max-heap ordered by weight; iteration-space proximity (smaller
     [d]) breaks ties, which keeps merged clusters contiguous when
     affinity alone cannot discriminate (e.g. regular stencils). *)
  let gt w1 d1 w2 d2 = w1 > w2 || (w1 = w2 && d1 < d2)

  let write h i w d pair stamp =
    let c = chunk h i and o = off i in
    c.(o) <- w;
    c.(o + 1) <- d;
    c.(o + 2) <- pair;
    c.(o + 3) <- stamp

  let move h ~src ~dst =
    let c = chunk h src and o = off src in
    write h dst c.(o) c.(o + 1) c.(o + 2) c.(o + 3)

  (* Both sifts carry the moving entry in a hole: the same result as
     swapping it step by step. *)
  let push h w d pair stamp =
    if h.len = Array.length h.chunks lsl chunk_bits then
      h.chunks <-
        Array.append h.chunks [| Array.make (fields lsl chunk_bits) 0 |];
    let i = ref h.len in
    h.len <- h.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if gt w d (weight h p) (prox h p) then begin
        move h ~src:p ~dst:!i;
        i := p
      end
      else continue := false
    done;
    write h !i w d pair stamp

  let top_pair h = h.chunks.(0).(2)
  let top_stamp h = h.chunks.(0).(3)

  let drop_top h =
    h.len <- h.len - 1;
    let n = h.len in
    let c = chunk h n and o = off n in
    let w = c.(o) and d = c.(o + 1) and pair = c.(o + 2) and stamp = c.(o + 3) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      (* The right child wins only when strictly above the left. *)
      let child =
        if r < n && gt (weight h r) (prox h r) (weight h l) (prox h l) then r
        else l
      in
      if l < n && gt (weight h child) (prox h child) w d then begin
        move h ~src:child ~dst:!i;
        i := child
      end
      else continue := false
    done;
    write h !i w d pair stamp
end

(* Agglomerate the clusters in [arr] down to [k] survivors by
   repeatedly merging the pair with maximal tag dot-product; pairs with
   zero affinity are merged smallest-first at the end.  Returns the
   survivors in index order. *)
let agglomerate arr k =
  let n = Array.length arr in
  let alive = ref n in
  let live = Array.make n true in
  let heap = Heap.create () in
  (* [last.(c)] is the merge count of [c]'s latest merge (as survivor
     or victim).  A candidate stamped [s] is valid iff neither of its
     clusters has merged since: [last.(a) <= s && last.(b) <= s]. *)
  let merges = ref 0 in
  let last = Array.make n 0 in
  (* Only clusters sharing at least one data block can have a positive
     dot product: enumerate candidate pairs through a block -> clusters
     inverted index instead of all n^2 pairs.  The index is packed: the
     clusters of block [blk] sit in [slots] from [start.(blk)], oldest
     first, [len.(blk)] of them.  A merge only ever shrinks a block's
     list, so the packing never overflows. *)
  let nblocks = Array.fold_left (fun m c -> max m (Bitset.width c.tag)) 0 arr in
  let len = Array.make nblocks 0 in
  (* Blocks in first-touch order, kept in a hash table because the
     seeding pass below visits them in its iteration order. *)
  let first_touch = Hashtbl.create 1024 in
  Array.iter
    (fun cl ->
      Bitset.iter
        (fun blk ->
          if len.(blk) = 0 then Hashtbl.add first_touch blk ();
          len.(blk) <- len.(blk) + 1)
        cl.tag)
    arr;
  let start = Array.make (nblocks + 1) 0 in
  for blk = 0 to nblocks - 1 do
    start.(blk + 1) <- start.(blk) + len.(blk);
    len.(blk) <- 0
  done;
  let slots = Array.make start.(nblocks) 0 in
  Array.iteri
    (fun a cl ->
      Bitset.iter
        (fun blk ->
          slots.(start.(blk) + len.(blk)) <- a;
          len.(blk) <- len.(blk) + 1)
        cl.tag)
    arr;
  (* Blocks touched by very many clusters (globally shared data, like
     a broadcast vector) do not discriminate between clusters; skip
     them when enumerating pairs to keep the candidate set near-linear.
     Pair quality is unaffected: any pair also sharing a selective
     block is still generated, and purely-global affinity ties are
     broken by the zero-affinity smallest-first fallback below. *)
  let fanout_cap = 64 in
  (* Tags in sparse form too: a dot walks the nonzero words of the
     sparser side only. *)
  let sparse = Array.map (fun c -> Bitset.sparse c.tag) arr in
  let push_pair a b =
    let a, b = (min a b, max a b) in
    if a <> b && live.(a) && live.(b) then begin
      let w =
        if Bitset.sparse_words sparse.(a) <= Bitset.sparse_words sparse.(b)
        then Bitset.dot_sparse sparse.(a) arr.(b).tag
        else Bitset.dot_sparse sparse.(b) arr.(a).tag
      in
      if w > 0 then
        Heap.push heap w
          (abs (arr.(a).first_key - arr.(b).first_key))
          ((a * n) + b) !merges
    end
  in
  (* Lists are walked newest first, so every block's pairs are pushed
     in descending cluster order. *)
  let seen_pairs = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun blk () ->
      let s = start.(blk) and m = len.(blk) in
      if m <= fanout_cap then
        for i = m - 1 downto 0 do
          let a = slots.(s + i) in
          for j = m - 1 downto i + 1 do
            let b = slots.(s + j) in
            let key = (a * n) + b in
            if not (Hashtbl.mem seen_pairs key) then begin
              Hashtbl.add seen_pairs key ();
              push_pair a b
            end
          done
        done)
    first_touch;
  (* [added.(c)] is the merge count at which [c] last joined
     [neighbours], so each neighbour is added once per merge. *)
  let added = Array.make n (-1) in
  let neighbours = Hashtbl.create 64 in
  let merge a b =
    (* Merge b into a. *)
    arr.(a).tag <- Bitset.union arr.(a).tag arr.(b).tag;
    sparse.(a) <- Bitset.sparse arr.(a).tag;
    arr.(a).members <- arr.(b).members @ arr.(a).members;
    arr.(a).size <- arr.(a).size + arr.(b).size;
    arr.(a).first_key <- min arr.(a).first_key arr.(b).first_key;
    live.(b) <- false;
    incr merges;
    last.(a) <- !merges;
    last.(b) <- !merges;
    decr alive;
    (* Refresh candidate merges against clusters sharing a block with
       the merged cluster (the only ones with a positive dot), newest
       first per block, in the hash table's order. *)
    Hashtbl.reset neighbours;
    Bitset.iter
      (fun blk ->
        (* Compact the block's list to its other live clusters (a or
           b was on it, so there is room to record the merged one). *)
        let s = start.(blk) in
        let m = ref 0 in
        for i = s to s + len.(blk) - 1 do
          let c = slots.(i) in
          if c <> a && live.(c) then begin
            slots.(s + !m) <- c;
            incr m
          end
        done;
        let m = !m in
        if m <= fanout_cap then
          for i = s + m - 1 downto s do
            let c = slots.(i) in
            if added.(c) <> !merges then begin
              added.(c) <- !merges;
              Hashtbl.add neighbours c ()
            end
          done;
        slots.(s + m) <- a;
        len.(blk) <- m + 1)
      arr.(a).tag;
    Hashtbl.iter (fun c () -> push_pair a c) neighbours
  in
  let rec drain () =
    if !alive > k then
      if not (Heap.is_empty heap) then begin
        let pair = Heap.top_pair heap and stamp = Heap.top_stamp heap in
        Heap.drop_top heap;
        let a = pair / n and b = pair mod n in
        if last.(a) <= stamp && last.(b) <= stamp then merge a b;
        drain ()
      end
      else begin
        (* No data sharing left: merge the two smallest clusters so
           that sizes stay mergeable-balanced. *)
        let s1 = ref (-1) and s2 = ref (-1) in
        for c = 0 to n - 1 do
          if live.(c) then
            if !s1 < 0 || arr.(c).size < arr.(!s1).size then begin
              s2 := !s1;
              s1 := c
            end
            else if !s2 < 0 || arr.(c).size < arr.(!s2).size then s2 := c
        done;
        merge (min !s1 !s2) (max !s1 !s2);
        drain ()
      end
  in
  drain ();
  List.filteri (fun c _ -> live.(c)) (Array.to_list arr)

(* Split the largest cluster (by iterations) in two; returns false when
   nothing can be split further. *)
let split_largest ~allow_splits clusters =
  let largest = ref None in
  List.iter
    (fun c ->
      if c.size > 1 then
        match !largest with
        | Some l when l.size >= c.size -> ()
        | _ -> largest := Some c)
    !clusters;
  match !largest with
  | None -> false
  | Some c -> (
      (* Prefer splitting off a whole member group; split a group in
         half only when the cluster is a single group. *)
      match cluster_groups c with
      | [] -> false
      | [ g ] ->
          if (not allow_splits) || Iter_group.size g < 2 then false
          else begin
            let g1, g2 = Iter_group.split g in
            c.members <- [ g1 ];
            c.size <- Iter_group.size g1;
            clusters := cluster_of_group g2 :: !clusters;
            true
          end
      | g :: rest ->
          c.members <- List.rev rest;
          c.size <- c.size - Iter_group.size g;
          clusters := cluster_of_group g :: !clusters;
          true)

let cluster_into ?(allow_splits = true) k groups =
  if k <= 0 then invalid_arg "Distribute.cluster_into: k";
  let arr = Array.of_list (List.map cluster_of_group groups) in
  let clusters =
    ref (if Array.length arr > k then agglomerate arr k else Array.to_list arr)
  in
  let progress = ref true in
  while List.length !clusters < k && !progress do
    progress := split_largest ~allow_splits clusters
  done;
  (* Pad with empty clusters when there are not enough iterations. *)
  let width =
    match groups with
    | g :: _ -> Bitset.width g.Iter_group.tag
    | [] -> 0
  in
  let rec pad cs n =
    if n <= 0 then cs
    else
      pad
        ({
           tag = Bitset.create width;
           members = [];
           size = 0;
           first_key = max_int;
         }
        :: cs)
        (n - 1)
  in
  let cs = pad !clusters (k - List.length !clusters) in
  List.map cluster_groups cs

(* --- load balancing ------------------------------------------------ *)

(* A group as balancing sees it: its tag in sparse form, so that its
   affinity with a cluster is a dot over a word or two rather than the
   whole tag width, its earliest iteration and its size.  Balancing
   scans every donor member per move, so these are computed once. *)
type item = {
  group : Iter_group.t;
  sparse_tag : Bitset.sparse;
  first : int;
  isize : int;
}

let item_of_group g =
  {
    group = g;
    sparse_tag = Bitset.sparse g.Iter_group.tag;
    first = Ctam_poly.Iterset.min_key g.Iter_group.iters;
    isize = Iter_group.size g;
  }

let balance ?(allow_splits = true) ~threshold ~weights clusters =
  let k = Array.length clusters in
  if Array.length weights <> k then invalid_arg "Distribute.balance: weights";
  let cl =
    Array.map
      (fun groups ->
        let width =
          match groups with
          | g :: _ -> Bitset.width g.Iter_group.tag
          | [] -> 0
        in
        let tag =
          List.fold_left
            (fun acc g -> Bitset.union acc g.Iter_group.tag)
            (Bitset.create width) groups
        in
        let items = List.map item_of_group groups in
        {
          tag;
          members = List.rev items;
          size = List.fold_left (fun s it -> s + it.isize) 0 items;
          first_key = List.fold_left (fun acc it -> min acc it.first) max_int items;
        })
      clusters
  in
  (* Clusters with a zero-width tag (empty input) adopt the width of a
     non-empty sibling so unions below stay well-typed. *)
  let width =
    Array.fold_left
      (fun acc c -> max acc (Bitset.width c.tag))
      0 cl
  in
  Array.iter
    (fun c -> if Bitset.width c.tag <> width then c.tag <- Bitset.create width)
    cl;
  let total = Array.fold_left (fun acc c -> acc + c.size) 0 cl in
  let wsum = Array.fold_left ( + ) 0 weights in
  let avg i = float_of_int (total * weights.(i)) /. float_of_int wsum in
  let up i = int_of_float (ceil (avg i *. (1. +. threshold))) in
  let low i = int_of_float (floor (avg i *. (1. -. threshold))) in
  let find_donor () =
    let best = ref (-1) in
    for i = 0 to k - 1 do
      if cl.(i).size > up i && (!best < 0 || cl.(i).size - up i > cl.(!best).size - up !best)
      then best := i
    done;
    !best
  in
  let find_recipient donor =
    let best = ref (-1) in
    let deficit i = avg i -. float_of_int cl.(i).size in
    for i = 0 to k - 1 do
      if i <> donor && (!best < 0 || deficit i > deficit !best) then best := i
    done;
    !best
  in
  (* The member of cluster [d] accepted by [ok] with the highest
     affinity to cluster [r]; a nearer earliest iteration breaks ties,
     and then the earlier member. *)
  let best_item ok d r =
    let tag = cl.(r).tag and first_key = cl.(r).first_key in
    let best = ref None and best_w = ref 0 and best_dist = ref 0 in
    List.iter
      (fun it ->
        if ok it then begin
          let w = Bitset.dot_sparse it.sparse_tag tag in
          let dist = abs (it.first - first_key) in
          match !best with
          | Some _ when !best_w > w || (!best_w = w && !best_dist <= dist) -> ()
          | _ ->
              best := Some it;
              best_w := w;
              best_dist := dist
        end)
      cl.(d).members;
    !best
  in
  (* Move a whole member from [d] to [r]; [first] says whether [r]'s
     earliest iteration follows. *)
  let move ?(first = true) d r it =
    let s = it.isize in
    cl.(d).members <- List.filter (fun x -> x != it) cl.(d).members;
    cl.(d).size <- cl.(d).size - s;
    cl.(r).members <- it :: cl.(r).members;
    cl.(r).size <- cl.(r).size + s;
    cl.(r).tag <- Bitset.union cl.(r).tag it.group.Iter_group.tag;
    if first then cl.(r).first_key <- min cl.(r).first_key it.first
  in
  (* Split a member and move its first [n] iterations from [d] to [r]. *)
  let move_part d r it n =
    let moved, kept = Iter_group.split_at n it.group in
    cl.(d).members <-
      item_of_group kept :: List.filter (fun x -> x != it) cl.(d).members;
    cl.(d).size <- cl.(d).size - n;
    cl.(r).members <- item_of_group moved :: cl.(r).members;
    cl.(r).size <- cl.(r).size + n;
    cl.(r).tag <- Bitset.union cl.(r).tag moved.Iter_group.tag
  in
  let total_members =
    Array.fold_left (fun acc c -> acc + List.length c.members) 0 cl
  in
  (* Every move strictly shrinks some donor's excess; group moves are
     bounded by a small multiple of the group count in practice. *)
  let guard = ref ((20 * total_members) + 200) in
  let rec loop () =
    decr guard;
    if !guard <= 0 then ()
    else begin
      let d = find_donor () in
      if d < 0 then ()
      else begin
        let r = find_recipient d in
        if r < 0 then ()
        else begin
          (* Whole-group move maximizing affinity with the recipient,
             keeping both clusters inside their windows. *)
          let eligible it =
            let s = it.isize in
            cl.(d).size - s >= low d && cl.(r).size + s <= up r
          in
          (match best_item eligible d r with
          | Some it -> move d r it
          | None when not allow_splits -> guard := 0
          | None -> (
              (* No whole group fits: split the highest-affinity group
                 and move just enough iterations. *)
              let want =
                min
                  (cl.(d).size - int_of_float (avg d))
                  (int_of_float (avg r) - cl.(r).size)
                |> max 1
              in
              match best_item (fun _ -> true) d r with
              | None -> guard := 0 (* donor empty: give up *)
              | Some it ->
                  let n = min want (it.isize - 1) in
                  if n < 1 then
                    (* Move the whole (size-1) group as a last resort,
                       keeping [r]'s earliest iteration: later
                       proximity ties, and so plans, depend on it. *)
                    move ~first:false d r it
                  else move_part d r it n));
          loop ()
        end
      end
    end
  in
  loop ();
  (* Polish: the threshold is the *tolerable* imbalance; keep making
     affinity-best moves from the fullest to the emptiest cluster while
     they strictly shrink the spread, so the typical result sits well
     inside the window (a contiguous-chunk baseline is perfectly
     balanced, and wall-clock time follows the slowest core). *)
  let polish_guard = ref ((4 * total_members) + 64) in
  let continue_polish = ref true in
  while !continue_polish && !polish_guard > 0 do
    decr polish_guard;
    continue_polish := false;
    let dmax = ref 0 and dmin = ref 0 in
    for i = 1 to k - 1 do
      let excess i = float_of_int cl.(i).size -. avg i in
      if excess i > excess !dmax then dmax := i;
      if excess i < excess !dmin then dmin := i
    done;
    let d = !dmax and r = !dmin in
    if d <> r then begin
      let excess_d = float_of_int cl.(d).size -. avg d in
      let deficit_r = avg r -. float_of_int cl.(r).size in
      let want = int_of_float (Float.min excess_d deficit_r) in
      (* Stop near-parity: chasing the last fraction of a percent only
         sprays tiny split fragments across clusters, destroying the
         locality the clustering built. *)
      let eps =
        max 1 (int_of_float (0.005 *. avg d))
      in
      if want >= eps then begin
        (* Prefer a whole group no larger than the need; else split. *)
        match best_item (fun it -> it.isize <= want) d r with
        | Some it ->
            move d r it;
            continue_polish := true
        | None when not allow_splits -> ()
        | None -> (
            (* All groups too big: split the best one. *)
            match best_item (fun it -> it.isize > want) d r with
            | None -> ()
            | Some it ->
                move_part d r it want;
                continue_polish := true)
      end
    end
  done;
  Array.map (fun c -> List.rev_map (fun it -> it.group) c.members) cl

(* --- hierarchical distribution ------------------------------------- *)

let subtree_cores tree = List.length (Topology.cores_under tree)

(* Number of clustering stages on the deepest root-to-core path (only
   nodes with more than one child force a clustering decision). *)
let clustering_depth topo =
  let rec depth = function
    | Topology.Core _ -> 0
    | Topology.Cache (_, [ only ]) -> depth only
    | Topology.Cache (_, children) ->
        1 + List.fold_left (fun acc c -> max acc (depth c)) 0 children
  in
  let forest = topo.Topology.roots in
  let base = List.fold_left (fun acc r -> max acc (depth r)) 0 forest in
  if List.length forest > 1 then base + 1 else base

type dependence_mode = Synchronize | Cluster

(* Paper section 3.5.2, first option: make every weakly-connected set of
   dependent groups a single indivisible unit ("associating an infinite
   edge weight"), so no inter-core synchronization is ever needed. *)
let fuse_dependent ~dep_graph groups =
  let n = Array.length groups in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter
    (fun (a, b) -> if a < n && b < n then union a b)
    (Ctam_deps.Dep_graph.edges dep_graph);
  let members = Hashtbl.create 16 in
  Array.iteri
    (fun i g ->
      let r = find i in
      Hashtbl.replace members r
        (g :: (try Hashtbl.find members r with Not_found -> [])))
    groups;
  let fused =
    Hashtbl.fold
      (fun _root gs acc ->
        match gs with
        | [ g ] -> g :: acc
        | g0 :: rest ->
            List.fold_left
              (fun acc g ->
                {
                  acc with
                  Iter_group.tag = Bitset.union acc.Iter_group.tag g.Iter_group.tag;
                  iters =
                    Ctam_poly.Iterset.union acc.Iter_group.iters
                      g.Iter_group.iters;
                })
              g0 rest
            :: acc
        | [] -> acc)
      members []
  in
  (* Keep deterministic order and dense ids. *)
  let fused =
    List.sort
      (fun a b ->
        compare
          (Ctam_poly.Iterset.min_key a.Iter_group.iters)
          (Ctam_poly.Iterset.min_key b.Iter_group.iters))
      fused
  in
  Array.of_list (List.mapi (fun i g -> { g with Iter_group.id = i }) fused)

let run ?(balance_threshold = default_balance_threshold)
    ?(dependence_mode = Synchronize) ?dep_graph topo groups =
  let groups, allow_splits =
    match (dependence_mode, dep_graph) with
    | Cluster, Some dg when not (Ctam_deps.Dep_graph.is_empty dg) ->
        (* Fused dependence clusters are indivisible: splitting them
           would reintroduce a cross-core dependence without any
           synchronization to protect it. *)
        (fuse_dependent ~dep_graph:dg groups, false)
    | (Cluster | Synchronize), _ -> (groups, true)
  in
  let result = Array.make topo.Topology.num_cores [] in
  (* Imbalance compounds multiplicatively across clustering levels;
     dividing the tolerance by the level count keeps the *global*
     per-core imbalance within the requested threshold. *)
  let levels = max 1 (clustering_depth topo) in
  let level_threshold = balance_threshold /. float_of_int levels in
  let rec assign tree groups =
    match tree with
    | Topology.Core c -> result.(c) <- groups
    | Topology.Cache (_, [ only ]) -> assign only groups
    | Topology.Cache (_, children) -> distribute_children children groups
  and distribute_children children groups =
    let k = List.length children in
    let clusters = Array.of_list (cluster_into ~allow_splits k groups) in
    let weights = Array.of_list (List.map subtree_cores children) in
    let balanced =
      balance ~allow_splits ~threshold:level_threshold ~weights clusters
    in
    List.iteri (fun i child -> assign child balanced.(i)) children
  in
  (match topo.Topology.roots with
  | [ root ] -> assign root (Array.to_list groups)
  | roots ->
      (* Memory is the conceptual root over multiple last-level caches. *)
      distribute_children roots (Array.to_list groups));
  result

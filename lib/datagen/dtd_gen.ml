open Xmlest_xmldb
type config = {
  seed : int;
  max_depth : int;
  p_opt : float;
  star_mean : float;
  plus_extra_mean : float;
  recursion_damping : float;
  max_nodes : int;
  text : Splitmix.t -> string -> string;
  rep_mean :
    parent:string -> kind:[ `Star | `Plus ] -> elems:string list -> float option;
  choice_weight : parent:string -> elems:string list -> float option;
}

let default_config =
  {
    seed = 42;
    max_depth = 12;
    p_opt = 0.5;
    star_mean = 2.0;
    plus_extra_mean = 1.0;
    recursion_damping = 0.55;
    max_nodes = 1_000_000;
    text = (fun rng _tag -> Text_pool.sentence rng);
    rep_mean = (fun ~parent:_ ~kind:_ ~elems:_ -> None);
    choice_weight = (fun ~parent:_ ~elems:_ -> None);
  }

(* Leaves of a particle that are element references. *)
let rec particle_elems acc = function
  | Dtd.Pcdata | Dtd.Empty -> acc
  | Dtd.Elem_ref n -> n :: acc
  | Dtd.Seq ps | Dtd.Choice ps -> List.fold_left particle_elems acc ps
  | Dtd.Opt p | Dtd.Star p | Dtd.Plus p -> particle_elems acc p

let generate ?(config = default_config) dtd ~root =
  (match Dtd.find dtd root with
  | None -> invalid_arg (Printf.sprintf "Dtd_gen.generate: %s is not declared" root)
  | Some _ -> ());
  let rng = Splitmix.create config.seed in
  let nodes = ref 0 in
  (* [recursive_via name] = expanding [name] can lead back to [name]'s
     ancestors; we approximate by checking whether the particle can reach
     the element currently being expanded (tracked via a path set). *)
  let rec gen_elem name ~path =
    incr nodes;
    let decl =
      match Dtd.find dtd name with Some d -> d | None -> assert false
    in
    let text = Buffer.create 8 in
    let children = ref [] in
    let emit_text () =
      if Buffer.length text > 0 then Buffer.add_char text ' ';
      Buffer.add_string text (config.text rng name)
    in
    let damping_at d = Float.pow config.recursion_damping (float_of_int d) in
    let budget_ok () = !nodes < config.max_nodes in
    (* Weight of picking a choice branch: damp branches that can recurse
       into an element already on the path. *)
    let branch_weight ~depth p =
      let elems = particle_elems [] p in
      let recursive =
        List.exists
          (fun e ->
            List.exists (fun anc -> List.mem anc (Dtd.reachable dtd e)) (name :: path))
          elems
      in
      let base =
        match config.choice_weight ~parent:name ~elems with
        | Some w -> w
        | None -> 1.0
      in
      match p with
      | Dtd.Pcdata -> base
      | _ when recursive ->
        if depth >= config.max_depth then 0.0 else base *. damping_at depth
      | _ -> base
    in
    let rec expand ~depth p =
      match p with
      | Dtd.Empty -> ()
      | Dtd.Pcdata -> emit_text ()
      | Dtd.Elem_ref n ->
        if depth < config.max_depth || not (List.mem n (name :: path)) then
          children := gen_elem n ~path:(name :: path) :: !children
      | Dtd.Seq ps -> List.iter (expand ~depth) ps
      | Dtd.Choice ps ->
        let weights = List.map (fun p -> (branch_weight ~depth p, p)) ps in
        let viable = List.filter (fun (w, _) -> w > 0.0) weights in
        if viable <> [] then expand ~depth (Splitmix.weighted rng viable)
      | Dtd.Opt p -> if Splitmix.bool rng config.p_opt then expand ~depth p
      | Dtd.Star p ->
        let base =
          match
            config.rep_mean ~parent:name ~kind:`Star ~elems:(particle_elems [] p)
          with
          | Some m -> m
          | None -> config.star_mean
        in
        let mean = base *. rep_damping ~depth p in
        let n = if budget_ok () then Splitmix.geometric rng mean else 0 in
        for _ = 1 to n do
          expand ~depth p
        done
      | Dtd.Plus p ->
        expand ~depth p;
        let base =
          match
            config.rep_mean ~parent:name ~kind:`Plus ~elems:(particle_elems [] p)
          with
          | Some m -> m
          | None -> config.plus_extra_mean
        in
        let mean = base *. rep_damping ~depth p in
        let n = if budget_ok () then Splitmix.geometric rng mean else 0 in
        for _ = 1 to n do
          expand ~depth p
        done
    (* Damp repetition counts only when the repeated particle can recurse,
       so flat lists stay long while recursive towers shrink. *)
    and rep_damping ~depth p =
      let elems = particle_elems [] p in
      let recursive =
        List.exists (fun e -> List.mem name (Dtd.reachable dtd e)) elems
      in
      if recursive then Float.pow config.recursion_damping (float_of_int depth)
      else 1.0
    in
    expand ~depth:(List.length path) decl.Dtd.content;
    Elem.make ~text:(Buffer.contents text) ~children:(List.rev !children) name
  in
  gen_elem root ~path:[]

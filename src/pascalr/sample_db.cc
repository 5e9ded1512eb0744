#include "pascalr/sample_db.h"

#include <random>

#include "base/str_util.h"

namespace pascalr {

namespace {

Status InsertTuple(Relation* rel, Tuple tuple) {
  PASCALR_ASSIGN_OR_RETURN(Ref ignored, rel->Insert(std::move(tuple)));
  (void)ignored;
  return Status::OK();
}

}  // namespace

Status CreateUniversitySchema(Database* db) {
  auto statustype = MakeEnum(
      "statustype", {"student", "technician", "assistant", "professor"});
  auto leveltype =
      MakeEnum("leveltype", {"freshman", "sophomore", "junior", "senior"});
  auto daytype = MakeEnum(
      "daytype", {"monday", "tuesday", "wednesday", "thursday", "friday"});
  PASCALR_RETURN_IF_ERROR(db->RegisterEnum(statustype));
  PASCALR_RETURN_IF_ERROR(db->RegisterEnum(leveltype));
  PASCALR_RETURN_IF_ERROR(db->RegisterEnum(daytype));

  // Figure 1 declares enumbertype/cnumbertype as 1..99; the library widens
  // the subranges so synthetic workloads can scale past 99 elements.
  Type enumbertype = Type::IntRange(1, 1000000000);
  Type cnumbertype = Type::IntRange(1, 1000000000);
  Type yeartype = Type::IntRange(1900, 1999);
  Type timetype = Type::IntRange(8000900, 18002000);

  {
    PASCALR_ASSIGN_OR_RETURN(
        Schema schema,
        Schema::Make({{"enr", enumbertype},
                      {"ename", Type::String(10)},
                      {"estatus", Type::Enum(statustype)}},
                     {"enr"}));
    PASCALR_ASSIGN_OR_RETURN(Relation * rel,
                             db->CreateRelation("employees", schema));
    (void)rel;
  }
  {
    PASCALR_ASSIGN_OR_RETURN(
        Schema schema, Schema::Make({{"penr", enumbertype},
                                     {"pyear", yeartype},
                                     {"ptitle", Type::String(40)}},
                                    {"ptitle", "penr"}));
    PASCALR_ASSIGN_OR_RETURN(Relation * rel,
                             db->CreateRelation("papers", schema));
    (void)rel;
  }
  {
    PASCALR_ASSIGN_OR_RETURN(
        Schema schema, Schema::Make({{"cnr", cnumbertype},
                                     {"clevel", Type::Enum(leveltype)},
                                     {"ctitle", Type::String(40)}},
                                    {"cnr"}));
    PASCALR_ASSIGN_OR_RETURN(Relation * rel,
                             db->CreateRelation("courses", schema));
    (void)rel;
  }
  {
    PASCALR_ASSIGN_OR_RETURN(
        Schema schema, Schema::Make({{"tenr", enumbertype},
                                     {"tcnr", cnumbertype},
                                     {"tday", Type::Enum(daytype)},
                                     {"ttime", timetype},
                                     {"troom", Type::String(5)}},
                                    {"tenr", "tcnr", "tday"}));
    PASCALR_ASSIGN_OR_RETURN(Relation * rel,
                             db->CreateRelation("timetable", schema));
    (void)rel;
  }
  return Status::OK();
}

Status PopulateSmallExample(Database* db) {
  Relation* employees = db->FindRelation("employees");
  Relation* papers = db->FindRelation("papers");
  Relation* courses = db->FindRelation("courses");
  Relation* timetable = db->FindRelation("timetable");
  if (employees == nullptr || papers == nullptr || courses == nullptr ||
      timetable == nullptr) {
    return Status::NotFound("university schema not created");
  }
  employees->Clear();
  papers->Clear();
  courses->Clear();
  timetable->Clear();

  // statustype ordinals: student=0, technician=1, assistant=2, professor=3.
  struct Emp {
    int enr;
    const char* name;
    int status;
  };
  const Emp kEmployees[] = {{1, "Alice", 3}, {2, "Bob", 3},  {3, "Carol", 3},
                            {4, "Dave", 2},  {5, "Erin", 0}, {6, "Frank", 3}};
  for (const Emp& e : kEmployees) {
    PASCALR_RETURN_IF_ERROR(InsertTuple(
        employees, Tuple{Value::MakeInt(e.enr), Value::MakeString(e.name),
                         Value::MakeEnum(e.status)}));
  }

  struct Paper {
    int penr;
    int pyear;
    const char* title;
  };
  const Paper kPapers[] = {{1, 1977, "P1"},
                           {1, 1975, "P2"},
                           {2, 1976, "P3"},
                           {4, 1977, "P4"},
                           {3, 1977, "P5"}};
  for (const Paper& p : kPapers) {
    PASCALR_RETURN_IF_ERROR(InsertTuple(
        papers, Tuple{Value::MakeInt(p.penr), Value::MakeInt(p.pyear),
                      Value::MakeString(p.title)}));
  }

  // leveltype ordinals: freshman=0, sophomore=1, junior=2, senior=3.
  struct Course {
    int cnr;
    int level;
    const char* title;
  };
  const Course kCourses[] = {
      {10, 0, "C10"}, {11, 1, "C11"}, {12, 2, "C12"}, {13, 3, "C13"}};
  for (const Course& c : kCourses) {
    PASCALR_RETURN_IF_ERROR(InsertTuple(
        courses, Tuple{Value::MakeInt(c.cnr), Value::MakeEnum(c.level),
                       Value::MakeString(c.title)}));
  }

  struct Slot {
    int tenr;
    int tcnr;
    int tday;
  };
  const Slot kSlots[] = {{1, 11, 0}, {1, 12, 1}, {2, 12, 0},
                         {3, 13, 0}, {4, 11, 1}, {6, 12, 0}};
  int room = 0;
  for (const Slot& s : kSlots) {
    PASCALR_RETURN_IF_ERROR(InsertTuple(
        timetable,
        Tuple{Value::MakeInt(s.tenr), Value::MakeInt(s.tcnr),
              Value::MakeEnum(s.tday), Value::MakeInt(9001000 + room * 1000),
              Value::MakeString(StrFormat("R%d", room % 20))}));
    ++room;
  }
  return Status::OK();
}

Status PopulateSynthetic(Database* db, const UniversityScale& scale) {
  Relation* employees = db->FindRelation("employees");
  Relation* papers = db->FindRelation("papers");
  Relation* courses = db->FindRelation("courses");
  Relation* timetable = db->FindRelation("timetable");
  if (employees == nullptr || papers == nullptr || courses == nullptr ||
      timetable == nullptr) {
    return Status::NotFound("university schema not created");
  }
  employees->Clear();
  papers->Clear();
  courses->Clear();
  timetable->Clear();

  std::mt19937_64 rng(scale.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  for (size_t i = 1; i <= scale.employees; ++i) {
    int status;
    if (coin(rng) < scale.professor_fraction) {
      status = 3;  // professor
    } else {
      status = static_cast<int>(rng() % 3);  // student..assistant
    }
    PASCALR_RETURN_IF_ERROR(InsertTuple(
        employees,
        Tuple{Value::MakeInt(static_cast<int64_t>(i)),
              Value::MakeString(StrFormat("E%zu", i).substr(0, 10)),
              Value::MakeEnum(status)}));
  }

  for (size_t i = 1; i <= scale.papers; ++i) {
    int64_t penr =
        scale.employees == 0
            ? 1
            : static_cast<int64_t>(rng() % scale.employees) + 1;
    int64_t pyear = coin(rng) < scale.papers_1977_fraction
                        ? 1977
                        : 1978 + static_cast<int64_t>(rng() % 20);
    PASCALR_RETURN_IF_ERROR(InsertTuple(
        papers, Tuple{Value::MakeInt(penr), Value::MakeInt(pyear),
                      Value::MakeString(StrFormat("P%zu", i))}));
  }

  for (size_t i = 1; i <= scale.courses; ++i) {
    int level;
    if (coin(rng) < scale.sophomore_fraction) {
      level = static_cast<int>(rng() % 2);  // freshman or sophomore
    } else {
      level = 2 + static_cast<int>(rng() % 2);  // junior or senior
    }
    PASCALR_RETURN_IF_ERROR(InsertTuple(
        courses, Tuple{Value::MakeInt(static_cast<int64_t>(i)),
                       Value::MakeEnum(level),
                       Value::MakeString(StrFormat("C%zu", i))}));
  }

  size_t inserted = 0;
  size_t attempts = 0;
  const size_t max_attempts = scale.timetable * 20 + 100;
  while (inserted < scale.timetable && attempts < max_attempts &&
         scale.employees > 0 && scale.courses > 0) {
    ++attempts;
    int64_t tenr = static_cast<int64_t>(rng() % scale.employees) + 1;
    int64_t tcnr = static_cast<int64_t>(rng() % scale.courses) + 1;
    int tday = static_cast<int>(rng() % 5);
    Tuple tuple{Value::MakeInt(tenr), Value::MakeInt(tcnr),
                Value::MakeEnum(tday),
                Value::MakeInt(9000000 + static_cast<int64_t>(rng() % 9000000)),
                Value::MakeString(StrFormat("R%d", static_cast<int>(rng() % 20)))};
    Result<Ref> ref = timetable->Insert(std::move(tuple));
    if (ref.ok()) {
      ++inserted;
    } else if (ref.status().code() != StatusCode::kAlreadyExists) {
      return ref.status();
    }
  }
  return Status::OK();
}

std::string Example21QuerySource() {
  return R"([<e.ename> OF EACH e IN employees:
    (e.estatus = professor)
    AND
    (ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))
     OR
     SOME c IN courses ((c.clevel <= sophomore)
       AND
       SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))])";
}

std::string Example45QuerySource() {
  return R"([<e.ename> OF EACH e IN [EACH e IN employees: e.estatus = professor]:
    ALL p IN [EACH p IN papers: p.pyear = 1977]
    SOME c IN [EACH c IN courses: c.clevel <= sophomore]
    SOME t IN timetable
    ((p.penr <> e.enr)
     OR
     (t.tenr = e.enr) AND (t.tcnr = c.cnr))])";
}

}  // namespace pascalr

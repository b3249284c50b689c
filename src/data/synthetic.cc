#include "data/synthetic.h"

#include <cassert>
#include <cmath>

#include "util/random.h"
#include "util/string_util.h"

namespace smptree {

namespace {

// Base attribute indices in SyntheticSchema order.
enum BaseAttr {
  kSalary = 0,
  kCommission,
  kAge,
  kElevel,
  kCar,
  kZipcode,
  kHvalue,
  kHyears,
  kHloan,
  kNumBaseAttrs,
};

bool InRange(double v, double lo, double hi) { return v >= lo && v <= hi; }

// Disposable-income helpers shared by functions 7-10.
double Disposable(double salary, double commission, double loan,
                  double elevel, double equity, int function) {
  const double income = 0.67 * (salary + commission);
  switch (function) {
    case 7:
      return income - 0.2 * loan - 20000.0;
    case 8:
      return income - 5000.0 * elevel - 20000.0;
    case 9:
      return income - 5000.0 * elevel - 0.2 * loan - 10000.0;
    case 10:
      return income - 5000.0 * elevel + 0.2 * equity - 10000.0;
    default:
      assert(false);
      return 0.0;
  }
}

}  // namespace

std::string SyntheticConfig::Name() const {
  if (num_tuples % 1000 == 0) {
    return StringPrintf("F%d-A%d-D%lldK", function, num_attrs,
                        static_cast<long long>(num_tuples / 1000));
  }
  return StringPrintf("F%d-A%d-D%lld", function, num_attrs,
                      static_cast<long long>(num_tuples));
}

int NumSyntheticFunctions() { return 10; }

Schema SyntheticSchema(int num_attrs) {
  Schema schema;
  schema.AddContinuous("salary");
  schema.AddContinuous("commission");
  schema.AddContinuous("age");
  schema.AddCategorical("elevel", 5);
  schema.AddCategorical("car", 20);
  schema.AddCategorical("zipcode", 9);
  schema.AddContinuous("hvalue");
  schema.AddContinuous("hyears");
  schema.AddContinuous("hloan");
  // Irrelevant padding attributes, alternating continuous / categorical with
  // varied cardinalities so the categorical split-evaluation path is also
  // exercised by the padded workloads.
  static const int kPadCards[] = {2, 5, 10, 20};
  int pad = 0;
  while (schema.num_attrs() < num_attrs) {
    if (pad % 2 == 0) {
      schema.AddContinuous(StringPrintf("noise_c%d", pad));
    } else {
      schema.AddCategorical(StringPrintf("noise_d%d", pad),
                            kPadCards[(pad / 2) % 4]);
    }
    ++pad;
  }
  schema.SetClassNames({"Group A", "Group B"});
  return schema;
}

bool SyntheticGroupA(int function, std::span<const AttrValue> values) {
  const double salary = values[kSalary].f;
  const double commission = values[kCommission].f;
  const double age = values[kAge].f;
  const int elevel = values[kElevel].cat;
  const double hvalue = values[kHvalue].f;
  const double hyears = values[kHyears].f;
  const double loan = values[kHloan].f;

  switch (function) {
    case 1:
      return age < 40.0 || age >= 60.0;
    case 2:
      if (age < 40.0) return InRange(salary, 50000, 100000);
      if (age < 60.0) return InRange(salary, 75000, 125000);
      return InRange(salary, 25000, 75000);
    case 3:
      if (age < 40.0) return elevel >= 0 && elevel <= 1;
      if (age < 60.0) return elevel >= 1 && elevel <= 3;
      return elevel >= 2 && elevel <= 4;
    case 4:
      if (age < 40.0) {
        return (elevel >= 0 && elevel <= 1) ? InRange(salary, 25000, 75000)
                                            : InRange(salary, 50000, 100000);
      }
      if (age < 60.0) {
        return (elevel >= 1 && elevel <= 3) ? InRange(salary, 50000, 100000)
                                            : InRange(salary, 75000, 125000);
      }
      return (elevel >= 2 && elevel <= 4) ? InRange(salary, 50000, 100000)
                                          : InRange(salary, 25000, 75000);
    case 5:
      if (age < 40.0) {
        return InRange(salary, 50000, 100000) ? InRange(loan, 100000, 300000)
                                              : InRange(loan, 200000, 400000);
      }
      if (age < 60.0) {
        return InRange(salary, 75000, 125000) ? InRange(loan, 200000, 400000)
                                              : InRange(loan, 300000, 500000);
      }
      return InRange(salary, 25000, 75000) ? InRange(loan, 300000, 500000)
                                           : InRange(loan, 100000, 300000);
    case 6: {
      const double total = salary + commission;
      if (age < 40.0) return InRange(total, 50000, 100000);
      if (age < 60.0) return InRange(total, 75000, 125000);
      return InRange(total, 25000, 75000);
    }
    case 7:
    case 8:
    case 9:
    case 10: {
      const double equity =
          hyears >= 20.0 ? 0.1 * hvalue * (hyears - 20.0) : 0.0;
      return Disposable(salary, commission, loan, elevel, equity, function) >
             0.0;
    }
    default:
      assert(false && "function must be in 1..10");
      return false;
  }
}

Schema MulticlassSchema(int num_attrs, int num_classes) {
  Schema schema = SyntheticSchema(num_attrs);
  std::vector<std::string> names;
  names.reserve(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    names.push_back(StringPrintf("band %d", c));
  }
  schema.SetClassNames(std::move(names));
  return schema;
}

int MulticlassBand(const TupleValues& values, int num_classes) {
  const double disposable =
      0.67 * (values[kSalary].f + values[kCommission].f) -
      5000.0 * values[kElevel].cat - 0.2 * values[kHloan].f - 10000.0;
  // Fixed thresholds inside the reachable disposable-income range (about
  // [-110K, 90.5K]; the maximum is 0.67*(75K+75K)-10K); band 0 is lowest.
  const double lo = -60000.0;
  const double hi = 70000.0;
  const double step = (hi - lo) / (num_classes - 1);
  int band = 0;
  for (double threshold = lo + step; band < num_classes - 1;
       threshold += step) {
    if (disposable < threshold) break;
    ++band;
  }
  return band;
}

Result<Dataset> GenerateMulticlassSynthetic(const MulticlassConfig& config) {
  if (config.num_classes < 2 || config.num_classes > 16) {
    return Status::InvalidArgument("num_classes outside [2,16]");
  }
  if (config.num_attrs < kNumBaseAttrs) {
    return Status::InvalidArgument("need at least 9 attributes");
  }
  if (config.label_noise < 0.0 || config.label_noise > 1.0) {
    return Status::InvalidArgument("label_noise outside [0,1]");
  }

  const Schema schema = MulticlassSchema(config.num_attrs, config.num_classes);
  Dataset data(schema);
  data.Resize(config.num_tuples);
  Random rng(config.seed);

  TupleValues values(config.num_attrs);
  for (int64_t t = 0; t < config.num_tuples; ++t) {
    const double salary = rng.UniformDouble(20000.0, 150000.0);
    const double commission =
        salary >= 75000.0 ? 0.0 : rng.UniformDouble(10000.0, 75000.0);
    const int32_t zipcode = static_cast<int32_t>(rng.Uniform(9));
    const double k = static_cast<double>(9 - zipcode);
    values[kSalary].f = static_cast<float>(salary);
    values[kCommission].f = static_cast<float>(commission);
    values[kAge].f = static_cast<float>(rng.UniformDouble(20.0, 80.0));
    values[kElevel].cat = static_cast<int32_t>(rng.Uniform(5));
    values[kCar].cat = static_cast<int32_t>(rng.Uniform(20));
    values[kZipcode].cat = zipcode;
    values[kHvalue].f =
        static_cast<float>(rng.UniformDouble(0.5 * k, 1.5 * k) * 100000.0);
    values[kHyears].f = static_cast<float>(rng.UniformDouble(1.0, 30.0));
    values[kHloan].f = static_cast<float>(rng.UniformDouble(0.0, 500000.0));
    for (int a = kNumBaseAttrs; a < config.num_attrs; ++a) {
      if (schema.attr(a).is_categorical()) {
        values[a].cat = static_cast<int32_t>(
            rng.Uniform(static_cast<uint64_t>(schema.attr(a).cardinality)));
      } else {
        values[a].f = static_cast<float>(rng.UniformDouble(0.0, 100000.0));
      }
    }
    int band = MulticlassBand(values, config.num_classes);
    if (config.label_noise > 0.0 && rng.Bernoulli(config.label_noise)) {
      band = static_cast<int>(
          rng.Uniform(static_cast<uint64_t>(config.num_classes)));
    }
    data.Set(t, values, static_cast<ClassLabel>(band));
  }
  return data;
}

Result<Dataset> GenerateSynthetic(const SyntheticConfig& config) {
  if (config.function < 1 || config.function > NumSyntheticFunctions()) {
    return Status::InvalidArgument(StringPrintf(
        "classification function %d outside 1..10", config.function));
  }
  if (config.num_attrs < kNumBaseAttrs) {
    return Status::InvalidArgument(StringPrintf(
        "need at least %d attributes, got %d", int{kNumBaseAttrs},
        config.num_attrs));
  }
  if (config.num_tuples < 0) {
    return Status::InvalidArgument("negative tuple count");
  }
  if (config.label_noise < 0.0 || config.label_noise > 1.0) {
    return Status::InvalidArgument("label_noise outside [0,1]");
  }

  Dataset data(SyntheticSchema(config.num_attrs));
  Random rng(config.seed);
  AppendSynthetic(config.function, config.label_noise, config.num_tuples,
                  &rng, &data);
  return data;
}

void AppendSynthetic(int function, double label_noise, int64_t n, Random* rng,
                     Dataset* data) {
  const Schema& schema = data->schema();
  const int64_t at = data->num_tuples();
  data->Resize(at + n);
  for (int64_t t = at; t < at + n; ++t) {
    AttrValue values[kNumBaseAttrs];  // the attributes the label reads
    const double salary = rng->UniformDouble(20000.0, 150000.0);
    const double commission =
        salary >= 75000.0 ? 0.0 : rng->UniformDouble(10000.0, 75000.0);
    const int32_t elevel = static_cast<int32_t>(rng->Uniform(5));
    const int32_t car = static_cast<int32_t>(rng->Uniform(20));
    const int32_t zipcode = static_cast<int32_t>(rng->Uniform(9));
    const double k = static_cast<double>(9 - zipcode);
    const double hvalue = rng->UniformDouble(0.5 * k, 1.5 * k) * 100000.0;

    values[kSalary].f = static_cast<float>(salary);
    values[kCommission].f = static_cast<float>(commission);
    values[kAge].f = static_cast<float>(rng->UniformDouble(20.0, 80.0));
    values[kElevel].cat = elevel;
    values[kCar].cat = car;
    values[kZipcode].cat = zipcode;
    values[kHvalue].f = static_cast<float>(hvalue);
    values[kHyears].f = static_cast<float>(rng->UniformDouble(1.0, 30.0));
    values[kHloan].f = static_cast<float>(rng->UniformDouble(0.0, 500000.0));

    for (int a = 0; a < schema.num_attrs(); ++a) {
      AttrValue& v = data->mutable_column(a)[t];
      if (a < kNumBaseAttrs) {
        v = values[a];
      } else if (schema.attr(a).is_categorical()) {
        v.cat = static_cast<int32_t>(
            rng->Uniform(static_cast<uint64_t>(schema.attr(a).cardinality)));
      } else {
        v.f = static_cast<float>(rng->UniformDouble(0.0, 100000.0));
      }
    }

    bool group_a = SyntheticGroupA(function, values);
    if (label_noise > 0.0 && rng->Bernoulli(label_noise)) {
      group_a = !group_a;
    }
    data->mutable_labels()[t] = group_a ? 0 : 1;
  }
}

}  // namespace smptree
